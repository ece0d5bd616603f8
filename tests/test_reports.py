"""Every verifier reports in one shape: {"ok", "failures"}, each failure
a ``Failure(axiom, where, residual)`` with a nonzero Poly residual."""

import pytest

from gsl import Failure, Field, Poly
from gsl.action import coaction_verify
from gsl.hopf import hopf_verify, morphism_check
from gsl.zoo import group_coaction_verify

from test_action import _unit_twist
from test_hopf import (_corrupt_u22_map, _noncoassociative, _principal_ideal,
                       d2)
from test_zoo import _broken_image


def _broken_group_coaction():
    G, M, rho = _broken_image(Field(2), "x + x^3 u")
    return group_coaction_verify(G, M, {"T": rho})


def _broken_ideal():
    H = d2()
    S, T = H.carrier.gens()
    return _principal_ideal(H, S * T).verify()


BROKEN = {
    "hopf_verify": lambda: hopf_verify(_noncoassociative()),
    "morphism_check": lambda: morphism_check(_corrupt_u22_map()),
    "coaction_verify": lambda: coaction_verify(_unit_twist()),
    "group_coaction_verify": _broken_group_coaction,
    "HopfIdeal.verify": _broken_ideal,
}


@pytest.mark.parametrize("verifier", sorted(BROKEN))
def test_every_verifier_reports_in_one_shape(verifier):
    rep = BROKEN[verifier]()
    assert set(rep) == {"ok", "failures"}
    assert rep["ok"] is False and rep["failures"]
    for f in rep["failures"]:
        assert type(f) is Failure
        assert isinstance(f.residual, Poly) and f.residual.d
