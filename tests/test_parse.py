import pytest

from gsl import Field
from gsl.hopf import presentations_equal
from gsl.parse import parse_presentation, print_presentation
from gsl.zoo import zoo_parse

F2 = Field(2)
F3 = Field(3)
F4 = Field(2, 2)

_ROUND_TRIP = ["alpha(2)", "mu(2)", "D(2)", "D(2,B)", "H(1,2)", "witt2",
               "cocycle_ext(a=1,n=2)"]


@pytest.mark.parametrize("F,cid", (
    [(F, cid) for F in (F2, F3, F4) for cid in _ROUND_TRIP]
    + [(F, "semidirect(D(2),mu(1),w=[-1,1])") for F in (F2, F4)]),
    ids=lambda x: x.name if isinstance(x, Field) else x)
def test_print_parse_print_is_a_fixed_point(F, cid):
    # parse_presentation runs hopf_verify on what it reads
    H = zoo_parse(cid, F)
    text = print_presentation(H)
    K = parse_presentation(text)
    assert print_presentation(K) == text
    assert presentations_equal(H, K)
