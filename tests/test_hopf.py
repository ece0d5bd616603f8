import functools
import gc
import hashlib
import math
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from gsl import BadParams, Field, NotNormal, SizeGuard, VerifyError, hopf
from gsl.hopf import (HopfAlgebra, HopfIdeal, Morphism, _coassoc_sides,
                      _counit_sides, _generating_vars,
                      _ideal_covers, _ideal_span_coords, _nil_order,
                      _requotient, _unit_order, closed_subgroup,
                      enumerate_morphisms, enumerate_subgroups,
                      find_isomorphism, frobenius,
                      frobenius_image, frobenius_kernel, hopf_ideal_closure,
                      hopf_product, hopf_verify, image_subgroup, is_central,
                      is_cocommutative, is_normal, kernel_subgroup,
                      lie_algebra, morphism_check, points_group,
                      presentations_equal, primitive_elements, quotient_group,
                      restricted_subalgebras, subgroup_from_elements)
from gsl.linalg import (Subspace, column_kernel, subspace_from,
                        subspace_intersect, subspace_sum)
from gsl.action import extends_to_p1, standard_coaction
from gsl.talg import (DIM_LIMIT, Algebra, Poly, QuotientAlgebra,
                      _evaluation_quotient, _mono_images, apply_map,
                      multiply_legs, quotient_algebra, subalgebra_generated)
from gsl.zoo import (D, SL2_kerF, kerFV, mu2_invariants_D, pullback, witt2,
                     zoo_parse)
from test_talg import naive_apply_map

F2 = Field(2)
F3 = Field(3)
F4 = Field(2, 2)
F5 = Field(5)
F9 = Field(3, 2)


def additive(F, name, order, hname):
    A = Algebra(F, [name], [order])
    t2 = A.tensor(A)
    return HopfAlgebra(A, {name: t2.var(name) + t2.var(name + "'")},
                       {name: 0}, name=hname)


def alpha(n, F=F2):
    """Frobenius-kernel heights of the additive group: k[T]/(T^p^n)."""
    return additive(F, "T", F.p ** n, "alpha%d" % n)


def mu(l, F=F2):
    """Truncated multiplicative group: k[X]/(X^p^l - 1), X group-like."""
    A = Algebra(F, ["X"], [F.p ** l], ["unit"])
    t2 = A.tensor(A)
    return HopfAlgebra(A, {"X": t2.var("X") * t2.var("X'")}, {"X": 1},
                       name="mu%d" % l)


def d2():
    """The dim-8 noncommutative-dual example: k[S,T]/(S^2,T^4) with
    delta(T) = T ox 1 + 1 ox T + S ox T^2."""
    A = Algebra(F2, ["S", "T"], [2, 4])
    t2 = A.tensor(A)
    dS = t2.var("S") + t2.var("S'")
    dT = t2.var("T") + t2.var("T'") + t2.var("S") * t2.var("T'") ** 2
    return HopfAlgebra(A, {"S": dS, "T": dT}, {"S": 0, "T": 0}, name="D2")


def d1():
    A = Algebra(F2, ["S", "T"], [2, 2])
    t2 = A.tensor(A)
    return HopfAlgebra(A, {"S": t2.var("S") + t2.var("S'"),
                           "T": t2.var("T") + t2.var("T'")},
                       {"S": 0, "T": 0}, name="D1")


def random_poly(draw, A, max_terms=4):
    d = {}
    for _ in range(draw(st.integers(0, max_terms))):
        m = tuple(draw(st.integers(0, o - 1)) for o in A.orders)
        c = draw(st.integers(1, A.field.q - 1))
        d[m] = c
    return A.poly(d)


# -- axioms ------------------------------------------------------------------

def test_alpha_axioms():
    a = alpha(2)
    rep = hopf_verify(a)
    assert rep == {"ok": True, "failures": []}
    assert is_cocommutative(a)
    assert a.antipode["T"] == a.carrier.var("T")


def test_alpha_char3_antipode():
    a = alpha(1, F3)
    assert hopf_verify(a)["ok"]
    T = a.carrier.var("T")
    assert a.antipode["T"] == T * a.carrier.scalar(2)


def test_mu_axioms():
    m = mu(1)
    assert hopf_verify(m)["ok"]
    assert m.antipode["X"] == m.carrier.var("X")
    m = mu(2)
    assert hopf_verify(m)["ok"]
    assert m.antipode["X"] == m.carrier.var("X") ** 3
    assert is_cocommutative(m)


def test_d2_axioms():
    H = d2()
    rep = hopf_verify(H)
    assert rep["ok"], rep["failures"]
    A = H.carrier
    S, T = A.gens()
    assert H.antipode["S"] == S
    assert H.antipode["T"] == T + S * T ** 2
    assert not is_cocommutative(H)


def test_solved_antipode_matches_given():
    A = Algebra(F2, ["S", "T"], [2, 4])
    t2 = A.tensor(A)
    dS = t2.var("S") + t2.var("S'")
    dT = t2.var("T") + t2.var("T'") + t2.var("S") * t2.var("T'") ** 2
    S, T = A.gens()
    given_anti = HopfAlgebra(A, {"S": dS, "T": dT}, {"S": 0, "T": 0},
                             antipode={"S": S, "T": T + S * T ** 2})
    solved = d2()
    assert ({k: dict(v.d) for k, v in given_anti.antipode.items()}
            == {k: dict(v.d) for k, v in solved.antipode.items()})


def _e_trunc(n, F):
    """The height-n truncation of the extension of the additive line by
    its first kernel, written out by hand: k[S,T]/(S^p, T^(p^n)) with S
    primitive, delta(T) = T x 1 + 1 x T + S x T^p and S(T) = -T + S T^p.
    zoo builds the same presentation as D(n,A); this copy checks the
    solvers on data that no zoo constructor wrote."""
    p = F.p
    A = Algebra(F, ("S", "T"), (p, p ** n))
    t2 = A.tensor(A)
    S, T = A.var("S"), A.var("T")
    S0, S1 = t2.embed(S, 0), t2.embed(S, 1)
    T0, T1 = t2.embed(T, 0), t2.embed(T, 1)
    return HopfAlgebra(A, {"S": S0 + S1, "T": T0 + T1 + S0 * T1 ** p},
                       {"S": 0, "T": 0}, {"S": -S, "T": -T + S * T ** p},
                       name="E_trunc(%d)" % n)


def _catalogue_group(cid, F):
    return _e_trunc(2, F) if cid == "E_trunc(2)" else zoo_parse(cid, F)


# catalogue ids whose constructors write the antipode down; pullback is
# built in characteristic 2 only, and has unit-kind generators (eps = 1)
_GIVEN_ANTIPODE = ["alpha(2)", "mu(2)", "D(0)", "D(2,A)", "D(2,B)",
                   "H(a=1,n=1)", "E_trunc(2)", "SL2_kerF(1)",
                   "semidirect(D(1),mu(1),w=[-1,1])",
                   "Hunip(s1=1,s2=1,n=1)"]


@pytest.mark.parametrize("F,cid", (
    [(F, cid) for F in (F2, F3, F5, F4) for cid in _GIVEN_ANTIPODE]
    + [(F, "pullback(1,0,1)") for F in (F2, F4)]),
    ids=lambda x: x.name if isinstance(x, Field) else x)
def test_fixed_point_antipode_matches_the_given_one(F, cid):
    H = _catalogue_group(cid, F)
    solved = HopfAlgebra(H.carrier, H.delta, H.counit, None)
    assert solved.antipode == H.antipode


@pytest.mark.parametrize("F", [F2, F3, F5], ids=lambda F: F.name)
def test_fixed_point_antipode_shifts_a_unit_generator(F):
    # X is group-like with eps(X) = 1 and X^p = 1, so S(X) = X^(p-1)
    H = mu(1, F)
    X = H.carrier.var("X")
    assert H.antipode["X"] == X ** (F.p - 1)
    assert hopf_verify(H)["ok"]


def test_gf5_witt2_antipode_is_pinned():
    # as the convolution series over the whole basis, the solver this
    # one replaced, printed it: the carry cancels over GF(5)
    W = witt2(F5)
    assert {nm: str(v) for nm, v in W.antipode.items()} == {
        "T0": "4*T0", "T1": "4*T1"}


@pytest.mark.parametrize("F", [F2, F3], ids=lambda F: F.name)
def test_antipode_that_never_settles_is_refused(F):
    # delta(T) = 1 ox T leaves R(T) = -T ox 1, and S(T) = -T + S(T)
    # cycles with period p
    A = Algebra(F, ["T"], [4])
    t2 = A.tensor(A)
    with pytest.raises(VerifyError) as exc:
        HopfAlgebra(A, {"T": t2.var("T'")}, {"T": 0}, None)
    assert exc.value.axiom == "antipode"


def test_antipode_of_a_shift_off_the_augmentation_ideal_is_refused():
    # eps(T) = 1 on a nilpotent T: y = T - 1 is a unit, not in the
    # augmentation ideal, and S(y) cycles through T + 1, T, 1 and 0
    A = Algebra(F2, ["T"], [2])
    t2 = A.tensor(A)
    with pytest.raises(VerifyError) as exc:
        HopfAlgebra(A, {"T": t2.var("T") * t2.var("T'")}, {"T": 1}, None)
    assert exc.value.axiom == "antipode"


def sl2_quotient(n, F):
    """SL2_kerF(n) in its quotient form, k[u11,u12,u21,u22]/(u^q, det - 1),
    built from talg primitives: the oracle for the free chart."""
    names = ("u11", "u12", "u21", "u22")
    shell = Algebra(F, names, (F.p ** n,) * 4)
    u11, u12, u21, u22 = shell.gens()
    A = quotient_algebra(shell, [u11 + u22 + u11 * u22 - u12 * u21],
                         eliminate=False)
    t2 = A.tensor(A)
    delta = {}
    for nm in names:
        i, j = nm[1], nm[2]
        delta[nm] = t2.var(nm) + t2.var(nm + "'")
        for k in "12":
            delta[nm] = delta[nm] + t2.var("u%s%s" % (i, k)) * t2.var(
                "u%s%s'" % (k, j))
    anti = {"u11": A.var("u22"), "u22": A.var("u11"),
            "u12": -A.var("u12"), "u21": -A.var("u21")}
    return HopfAlgebra(A, delta, {nm: 0 for nm in names}, anti,
                       name="SL2 quotient(%d)" % n)


@pytest.mark.parametrize("F,n", [(F2, 1), (F2, 2), (F2, 3), (F4, 1),
                                 (F3, 1), (F3, 2), (F5, 1)],
                         ids=lambda x: x.name if isinstance(x, Field) else x)
def test_sl2_chart_is_the_quotient_form(F, n):
    # u_ij -> u_ij both ways, u22 -> its alias on the chart
    G, Q = SL2_kerF(n, F), sl2_quotient(n, F)
    assert hopf_verify(Q)["ok"]
    A, B = G.carrier, Q.carrier
    to_q = Morphism(G, Q, {nm: B.var(nm) for nm in A.vars})
    to_chart = Morphism(Q, G, {nm: A.var(nm) for nm in B.vars})
    for f in (to_q, to_chart):
        assert morphism_check(f)["ok"]
        assert f.is_bijective()
    assert to_q.map(A.var("u22")) == B.var("u22")


def test_generating_vars_skip_the_leads_of_the_groebner_basis():
    for F, n in ((F2, 1), (F3, 1), (F5, 1), (F2, 3)):
        assert _generating_vars(sl2_quotient(n, F).carrier) == [
            "u11", "u12", "u21"]
        assert _generating_vars(SL2_kerF(n, F).carrier) == ["u11", "u12", "u21"]
    for cid in ("alpha(3)", "witt2", "D(2,B)", "cocycle_ext(a=1,n=2)",
                "semidirect(D(1),mu(1),w=[-1,1])"):
        A = zoo_parse(cid, F2).carrier
        assert _generating_vars(A) == list(A.vars)
    # a lead that is not a variable skips nothing
    A = Algebra(F3, ["x", "y"], [9, 9])
    x, y = A.gens()
    Q = quotient_algebra(A, [x * y + x ** 2, y ** 2 * x], eliminate=False)
    assert all(sum(A.exponents(max(g.d))) > 1 for g in Q.groebner)
    assert _generating_vars(Q) == ["x", "y"]


def _det_witness(rep, tag):
    return [f for f in rep["failures"] if f.axiom == "well_defined"
            and f.where.startswith(tag + "(ideal gen")]


def test_verify_catches_a_corrupt_map_on_a_skipped_generator():
    # u22 is a polynomial in the other three, so only the det relation
    # sees its images
    G = sl2_quotient(1, F3)
    A, t2 = G.carrier, G.t2()
    assert "u22" not in _generating_vars(A)
    delta = dict(G.delta)
    delta["u22"] = delta["u22"] + t2.var("u12") * t2.var("u21'")
    rep = hopf_verify(HopfAlgebra(A, delta, G.counit, G.antipode))
    assert not rep["ok"] and _det_witness(rep, "delta")
    anti = dict(G.antipode)
    anti["u22"] = anti["u22"] + A.var("u12")
    rep = hopf_verify(HopfAlgebra(A, G.delta, G.counit, anti))
    assert not rep["ok"] and _det_witness(rep, "antipode")


def _corrupt_u22_map():
    """The identity of GF(3) SL2_kerF(1), in its quotient form, with u22
    sent off its det relation; u22 is no generator, so only that
    relation sees it."""
    G = sl2_quotient(1, F3)
    A = G.carrier
    images = {nm: A.var(nm) for nm in A.vars}
    images["u22"] = A.var("u22") + A.var("u12") * A.var("u21")
    return Morphism(G, G, images)


def test_morphism_check_catches_a_corrupt_image_of_a_skipped_generator():
    f = _corrupt_u22_map()
    A = f.source.carrier
    assert morphism_check(Morphism(f.source, f.target, {
        nm: A.var(nm) for nm in A.vars}))["ok"]
    rep = morphism_check(f)
    assert not rep["ok"] and _axioms(rep) == {"well_defined"}
    assert rep["failures"][0].where.startswith("ideal gen")


def _triples(rep):
    return [(f.axiom, f.where, str(f.residual)) for f in rep["failures"]]


def _axioms(rep):
    return {f.axiom for f in rep["failures"]}


def _broken_d2_map(which):
    """A map out of GF(3) D(2) that breaks one axiom only.  Delta: S goes
    to S + S T^6.  A Hopf map that respects delta respects eps and S, so
    the other two break the target instead: the identity into D(2) with
    eps(S) = 1, or with S(S) = S."""
    G = D(2, "A", F3)
    A = G.carrier
    S = A.var("S")
    images = {nm: A.var(nm) for nm in A.vars}
    target = G
    if which == "delta":
        images["S"] = S + S * A.var("T") ** 6
    elif which == "counit":
        target = HopfAlgebra(A, G.delta, {"S": 1, "T": 0}, G.antipode)
    else:
        target = HopfAlgebra(A, G.delta, G.counit, {**G.antipode, "S": S})
    return Morphism(G, target, images)


MORPHISM_FAILURES = {
    "delta": [
        ("delta_compatible", "S",
         "T^3*S'*T'^3 + 2*T^6*S' + 2*S*T'^6 + S*T^3*T'^3"),
        ("delta_compatible", "T", "S*T^6*T'^3")],
    "counit": [("counit_compatible", "S", "1")],
    "antipode": [("antipode_compatible", "S", "S")],
}


@pytest.mark.parametrize("which", sorted(MORPHISM_FAILURES))
def test_morphism_failures_pinned(which):
    rep = morphism_check(_broken_d2_map(which))
    assert not rep["ok"]
    assert _triples(rep) == MORPHISM_FAILURES[which]


def test_verify_catches_bad_relation():
    # primitive delta is not compatible with a cube-zero truncation in char 2
    A = Algebra(F2, ["T"], [3])
    t2 = A.tensor(A)
    H = HopfAlgebra(A, {"T": t2.var("T") + t2.var("T'")}, {"T": 0},
                    antipode={"T": A.var("T")})
    rep = hopf_verify(H)
    assert not rep["ok"] and "well_defined" in _axioms(rep)


def _noncoassociative():
    """k[T]/(T^4) over GF(2) with delta(T) = T ox 1 + 1 ox T + T ox T^2:
    well defined (delta(T)^4 = 0) and counital, not coassociative."""
    A = Algebra(F2, ["T"], [4])
    t2 = A.tensor(A)
    T, T_ = t2.var("T"), t2.var("T'")
    return HopfAlgebra(A, {"T": T + T_ + T * T_ ** 2}, {"T": 0},
                       antipode={"T": A.var("T")})


def test_verify_catches_noncoassociative_delta():
    rep = hopf_verify(_noncoassociative())
    assert not rep["ok"] and _axioms(rep) == {"coassociative", "antipode_ok"}
    assert [t for t in _triples(rep) if t[0] == "coassociative"] == [
        ("coassociative", "T", "T*T'^2*T''^2")]


def _coassoc_sides_by_products(H, dx):
    """Both sides substituted into A ox A ox A term by term, a product per
    term and leg (``naive_apply_map``, not the kernel under test): the
    route that ``_coassoc_sides`` replaced, kept as an oracle."""
    t3 = H.t3()
    names = H.carrier.vars

    def on_legs(f, k):
        return naive_apply_map(
            f, {nm: t3.var(nm + "'" * k) for nm in f.alg.vars}, t3)

    left = {nm: on_legs(H.delta[nm], 0) for nm in names}
    left.update({nm + "'": t3.var(nm + "''") for nm in names})
    right = {nm: t3.var(nm) for nm in names}
    right.update({nm + "'": on_legs(H.delta[nm], 1) for nm in names})
    return naive_apply_map(dx, left, t3), naive_apply_map(dx, right, t3)


_CATALOGUE = ["alpha(2)", "mu(2)", "D(2,A)", "D(2,B)", "H(a=1,n=2)",
              "E_trunc(2)", "semidirect(D(1),mu(1),w=[-1,1])", "witt2",
              "kerFV", "cocycle_ext(a=1,n=2)", "SL2_kerF(1)",
              "Hunip(s1=1,s2=1,n=2)"]


@pytest.mark.parametrize("F,cid", (
    [(F, cid) for F in (F2, F4, F3, F5) for cid in _CATALOGUE]
    + [(F, "pullback(1,0,1)") for F in (F2, F4)]),
    ids=lambda x: x.name if isinstance(x, Field) else x)
def test_coassoc_sides_match_the_product_route(F, cid):
    H = _catalogue_group(cid, F)
    for nm in H.carrier.vars:
        dx = H.delta[nm]
        assert _coassoc_sides(H, dx) == _coassoc_sides_by_products(H, dx)


def test_coassoc_sides_match_the_product_route_off_coassociativity():
    H = _noncoassociative()
    left, right = _coassoc_sides(H, H.delta["T"])
    assert left != right
    assert (left, right) == _coassoc_sides_by_products(H, H.delta["T"])


@pytest.fixture
def products(monkeypatch):
    """The algebra of every ``Algebra.mul_dicts`` call from here on."""
    calls = []
    mul_dicts = Algebra.mul_dicts

    def counted(self, d1, d2):
        calls.append(self)
        return mul_dicts(self, d1, d2)

    monkeypatch.setattr(Algebra, "mul_dicts", counted)
    return calls


def test_reanchoring_delta_makes_no_product(products):
    H = SL2_kerF(1, F3)
    A = H.carrier
    t2 = A.tensor(A)  # a caller-side tensor over the same factors
    given = {nm: Poly(t2, dict(v.d)) for nm, v in H.delta.items()}
    del products[:]
    K = HopfAlgebra(A, given, H.counit, H.antipode)
    assert products == []
    assert K.delta == H.delta and K.antipode == H.antipode


@pytest.mark.parametrize("F,cid", [(F2, "SL2_kerF(2)"), (F3, "SL2_kerF(1)"),
                                   (F4, "D(2,B)"), (F5, "mu(1)")],
                         ids=lambda x: x.name if isinstance(x, Field) else x)
def test_counit_sides_make_no_product(products, F, cid):
    H = zoo_parse(cid, F)
    A = H.carrier
    eps_l = {nm: A.scalar(H.counit[nm]) for nm in A.vars}
    eps_l.update({nm + "'": A.var(nm) for nm in A.vars})
    eps_r = {nm: A.var(nm) for nm in A.vars}
    eps_r.update({nm + "'": A.scalar(H.counit[nm]) for nm in A.vars})
    for nm in A.vars:
        dx = H.delta[nm]
        del products[:]
        sides = _counit_sides(H, dx)
        assert products == []
        assert sides == (A.var(nm), A.var(nm))
        assert sides == (naive_apply_map(dx, eps_l, A),
                         naive_apply_map(dx, eps_r, A))


def test_counit_sides_tell_the_legs_apart():
    # delta(T) = T ox 1 is counital on the right only
    A = Algebra(F2, ["T"], [4])
    t2 = A.tensor(A)
    H = HopfAlgebra(A, {"T": t2.var("T")}, {"T": 0},
                    antipode={"T": A.var("T")})
    assert _counit_sides(H, H.delta["T"]) == (A.zero(), A.var("T"))
    rep = hopf_verify(H)
    assert [t for t in _triples(rep) if t[0] == "counital"] == [
        ("counital", "T", "T")]


def test_counit_and_delta_of_elements_on_other_names():
    # Hunip(1,1,2) eliminates u11, u21 and the alias u22 to multiples
    # of u12
    H = zoo_parse("Hunip(s1=1,s2=1,n=2)", F3)
    A = H.carrier
    assert A.vars == ("u12",)
    B = Algebra(F3, ["u12", "u11"], [9, 9])
    u12, u11 = B.gens()
    f = 1 + u11 + 2 * u11 * u12 + u12 ** 2
    pushed = apply_map(f, {}, A)
    assert H.counit_map(f) == H.counit_map(pushed) == 1
    C = Algebra(F3, ["u12"], [9])  # the carrier's names, but not the carrier
    g = C.var("u12") ** 2 + 2
    assert H.delta_map(g) == H.delta_map(apply_map(g, {}, A))
    assert H.antipode_map(g) == apply_map(g, H.antipode, A)
    K = SL2_kerF(1, F3)
    D = Algebra(F3, ["u12", "u11"], [3, 3])  # a subset of the names
    h = D.var("u11") * D.var("u12") + D.var("u12") ** 2
    assert K.delta_map(h) == K.delta_map(apply_map(h, {}, K.carrier))
    assert K.antipode_map(h) == apply_map(h, K.antipode, K.carrier)
    # a name that is an alias of the chart reads the alias
    E = Algebra(F3, ["u22"], [3])
    assert K.delta_map(E.var("u22")) == K.delta_map(K.carrier.var("u22"))
    assert K.counit_map(E.var("u22") + 1) == 1


def test_delta_mono_costs_a_product_per_monomial_and_power(products):
    H = SL2_kerF(2, F2)
    A = H.carrier
    K = HopfAlgebra(A, H.delta, H.counit, H.antipode)  # an empty memo
    basis = A.basis_monomials()
    powers = {(k, e) for m in basis for k, e in enumerate(A.exponents(m))
              if e}
    del products[:]
    table = [K.delta_mono(m) for m in basis]
    assert 0 < len(products) <= len(basis) + len(powers)
    del products[:]
    assert [K.delta_mono(m) for m in basis] == table and products == []
    t2 = K.t2()
    for m, d in zip(basis, table):
        assert d == naive_apply_map(Poly(A, {m: 1}), K.delta, t2).d


@pytest.mark.parametrize("F,cid", [
    (F2, "alpha(8)"), (F5, "SL2_kerF(1)"), (F2, "SL2_kerF(3)"),
    (F3, "SL2_kerF(2)")], ids=lambda x: x.name if isinstance(x, Field) else x)
def test_verify_passes_where_the_tensor_cube_is_past_the_dim_limit(F, cid):
    # dim A ox A ox A is 1.7e7, 2.0e6, 1.3e8 and 3.9e8: once refused whole
    H = zoo_parse(cid, F)
    assert H.t3().dim > DIM_LIMIT
    rep = hopf_verify(H)
    assert rep["ok"], rep["failures"]


def test_guards_name_what_a_large_carrier_would_materialise():
    # GF(2) SL2_kerF(4) (dim 4096) builds; the dense operations refuse it
    G = SL2_kerF(4)
    assert G.dim == 4096
    checks = [
        ("tensor basis_monomials", lambda: G.t2().to_vector(G.delta["u11"])),
        # its columns are keyed by A ox A
        ("primitive_elements column keys", lambda: primitive_elements(G)),
        # its columns are keyed by A ox Q, Q = A here
        ("quotient_group column keys",
         lambda: quotient_group(G, HopfIdeal(G, Subspace(F2, G.dim)))),
        # its table of generator times basis monomial is 3 * 4096^2 long
        ("enumerate_subgroups cover rows", lambda: enumerate_subgroups(G)),
    ]
    for what, call in checks:
        with pytest.raises(SizeGuard) as exc:
            call()
        assert exc.value.what == what
    # HopfIdeal.verify lays out nothing of size dim^2: the span of one
    # basis monomial is no ideal, and the report says so
    rep = HopfIdeal(G, subspace_from(F2, G.dim, [1 << 5])).verify()
    assert rep["ok"] is False and "ideal" in _axioms(rep)
    # nor do lie_algebra and subgroup_from_elements; u12 alone is not
    # coproduct stable
    assert len(lie_algebra(G)[0]) == 3
    with pytest.raises(VerifyError, match=r"delta\(U\) escapes the span"):
        subgroup_from_elements(G, [("U", G.carrier.var("u12"))])


def transposed_primitives(H):
    """The primitives as the right kernel of one dense dim-long row per
    A ox A monomial of delta(m) - m ox 1 - 1 ox m, read in free-variable
    form: the reference ``primitive_elements`` must span the same space
    as."""
    A, F = H.carrier, H.field
    t2 = H.t2()
    n = A.dim
    seen = {}
    for j, m in enumerate(A.basis_monomials()):
        f = A.poly({m: 1})
        resid = H.delta_map(f) - t2.elem(f, A.one()) - t2.elem(A.one(), f)
        for mono, c in resid.d.items():
            seen.setdefault(mono, [0] * n)[j] = c
    eqs = subspace_from(F, n, seen.values())
    rows = dict(zip(eqs.pivots(), eqs.basis()))
    out = []
    for j in range(n):
        if j not in rows:
            vec = [0] * n
            vec[j] = 1
            for l, row in rows.items():
                if row[j]:
                    vec[l] = F.neg(row[j])
            out.append(vec)
    return out


PRIMITIVE_CARRIERS = {"alpha(2)": lambda F: alpha(2, F),
                      "mu(1)": lambda F: mu(1, F),
                      "D(2)": lambda F: zoo_parse("D(2)", F),
                      "H(1,3)": lambda F: zoo_parse("H(1,3)", F),
                      "witt2": witt2,
                      "SL2_kerF(1)": lambda F: SL2_kerF(1, F)}


# all but GF(5) witt2 (dim 625), whose reference rows would be 625^2 long
@pytest.mark.parametrize("name,F", [
    pytest.param(name, F, id="%s-%s" % (name, F.name))
    for F in (F2, F4, F3, F9, F5) for name in PRIMITIVE_CARRIERS
    if (name, F) != ("witt2", F5)])
def test_primitives_match_the_transposed_rows(name, F):
    G = PRIMITIVE_CARRIERS[name](F)
    A, t2 = G.carrier, G.t2()
    prims = primitive_elements(G)
    for x in prims:
        assert G.delta_map(x) == t2.elem(x, A.one()) + t2.elem(A.one(), x)
    got = subspace_from(F, A.dim, [A.to_vector(x) for x in prims])
    want = subspace_from(F, A.dim, transposed_primitives(G))
    assert got.basis() == want.basis()
    # primitives are the maps G -> G_a; they need not span the tangent
    # space: mu(1) has none, alpha(2) has T and T^p on a line
    counts = {"alpha(2)": (2, 1), "mu(1)": (0, 1), "D(2)": (2, 2),
              "H(1,3)": (2, 1), "witt2": (2, 2),
              "SL2_kerF(1)": (2 if F.p == 2 else 0, 3)}
    assert (len(prims), len(lie_algebra(G)[0])) == counts[name]


def test_kernel_subgroup_refuses_a_map_off_the_counit():
    # T -> T + 1 is no group map: its image of the augmentation ideal
    # leaves the augmentation ideal, which closed_subgroup refuses
    a = alpha(1)
    f = Morphism(a, a, {"T": a.carrier.var("T") + 1})
    with pytest.raises(BadParams, match="augmentation ideal"):
        kernel_subgroup(f)


def test_verify_catches_bad_counit():
    A = Algebra(F2, ["T"], [2])
    t2 = A.tensor(A)
    H = HopfAlgebra(A, {"T": t2.var("T")}, {"T": 0},
                    antipode={"T": A.var("T")})
    rep = hopf_verify(H)
    assert not rep["ok"] and "counital" in _axioms(rep)


@settings(max_examples=40)
@given(data=st.data())
def test_counit_and_antipode_laws_on_elements(data):
    H = d2()
    A = H.carrier
    f = random_poly(data.draw, A)
    eps_l = {nm: A.scalar(H.counit[nm]) for nm in A.vars}
    eps_l.update({nm + "'": A.var(nm) for nm in A.vars})
    eps_r = {nm: A.var(nm) for nm in A.vars}
    eps_r.update({nm + "'": A.scalar(H.counit[nm]) for nm in A.vars})
    from gsl.talg import apply_map
    dx = H.delta_map(f)
    assert apply_map(dx, eps_l, A) == f
    assert apply_map(dx, eps_r, A) == f
    s_l = {nm: H.antipode[nm] for nm in A.vars}
    s_l.update({nm + "'": A.var(nm) for nm in A.vars})
    s_r = {nm: A.var(nm) for nm in A.vars}
    s_r.update({nm + "'": H.antipode[nm] for nm in A.vars})
    target = A.scalar(H.counit_map(f))
    assert apply_map(dx, s_l, A) == target
    assert apply_map(dx, s_r, A) == target


@settings(max_examples=40)
@given(data=st.data())
def test_antipode_involutive_on_commutative_carrier(data):
    H = d2()
    f = random_poly(data.draw, H.carrier)
    assert H.antipode_map(H.antipode_map(f)) == f


# -- morphisms, kernels, images ----------------------------------------------

def test_frobenius_morphism_and_kernel():
    H = d2()
    fr = frobenius(H, 1)
    assert morphism_check(fr)["ok"]
    K = kernel_subgroup(fr)
    im = image_subgroup(fr)
    assert K.dim == 4 and im.dim == 2
    assert K.dim * im.dim == H.dim
    assert presentations_equal(K, d1())
    assert find_isomorphism(d1(), K) is not None


def test_frobenius_on_alpha():
    a = alpha(2)
    K = frobenius_kernel(a, 1)
    im = frobenius_image(a, 1)
    assert presentations_equal(K, alpha(1))
    assert presentations_equal(im, alpha(1))
    a = alpha(3)
    fr = frobenius(a, 2)
    assert morphism_check(fr)["ok"]
    assert kernel_subgroup(fr).dim * image_subgroup(fr).dim == a.dim


def test_function_subalgebra_gives_quotient_map():
    # the functions generated by S present the S-coordinate projection;
    # its kernel is the T-axis
    H = d2()
    A = H.carrier
    K, pr = subgroup_from_elements(H, [("U", A.var("S"))])
    assert K.dim == 2
    assert morphism_check(pr)["ok"]
    ker = kernel_subgroup(pr)
    assert ker.dim == 4
    assert presentations_equal(ker, alpha(2))


def test_subalgebra_must_be_coproduct_stable():
    H = d2()
    with pytest.raises(VerifyError):
        subgroup_from_elements(H, [("U", H.carrier.var("T"))])


@pytest.mark.parametrize("pres", ["A", "B"], ids=["left", "right"])
def test_coproduct_escapes_on_either_leg_over_gf3(pres):
    # delta(T) = T ox 1 + 1 ox T + tail in D(2) over GF(3); the tail
    # S ox T^3 escapes span(T^i) in its left slice, T^3 ox S only in the
    # right slice that the left slices leave
    H = D(2, pres, F3)
    with pytest.raises(VerifyError, match=r"delta\(U\) escapes the span"):
        subgroup_from_elements(H, [("U", H.carrier.var("T"))])


def _presentation_text(K):
    """Generators, structure maps and the ideal of a carrier as text: its
    dimension and a digest of its echelon rows m - nf(m) over the shell
    pivots m (print_presentation refuses a carrier presented by a
    subspace)."""
    A = K.carrier
    amb = A.ambient
    lines = ["field %s" % K.field.name]
    for nm, d, kind in zip(A.vars, amb.orders, amb.kinds):
        lines.append("%s ^%d %s" % (nm, d, kind))
    rows = [] if amb is A else [
        str(Poly(amb, {m: 1}) - Poly(amb, A.reduce_term(m)))
        for m in amb.monomials() if A.reduce_term(m) is not None]
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]
    lines.append("ideal %d %s" % (len(rows), digest))
    for nm in A.vars:
        lines.append("delta %s = %s" % (nm, K.delta[nm]))
        lines.append("counit %s = %s" % (nm, K.counit[nm]))
        lines.append("antipode %s = %s" % (nm, K.antipode[nm]))
    return "\n".join(lines)


def _kerfv(F):
    # the construction of zoo.kerFV, keeping the inclusion
    W = witt2(F)
    A = W.carrier
    f = Morphism(W, W, {"T0": A.var("T0") ** F.p,
                        "T1": A.var("T1") ** F.p + A.var("T0")})
    K = kernel_subgroup(f)
    sub, incl = subgroup_from_elements(K, [("T", K.carrier.var("T1"))],
                                       name="kerFV")
    return sub, incl, kerFV(F)


def _mu2_invariants(s1, s2):
    # the subgroup step of zoo.mu2_invariants_D at n = 1, over GF(2)
    P = pullback(s1, s2, 1, F2)
    X = P.carrier.var
    K, incl = subgroup_from_elements(
        P, [("Y1", X("X11") * X("X12")), ("Y2", X("X21") * X("X22"))])
    return K, incl, mu2_invariants_D(s1, s2, 1, F2)["group"]


def _frobenius_image(F, cid):
    # image_subgroup of the Frobenius, keeping the inclusion
    G = zoo_parse(cid, F)
    fr = frobenius(G)
    K, incl = subgroup_from_elements(
        fr.target, [(nm, fr.images[nm]) for nm in fr.source.carrier.vars])
    return K, incl, frobenius_image(G)


# _presentation_text of the groups subgroup_from_elements and
# quotient_group return
SUBGROUP_PINS = {
    "kerFV GF(2)": """\
field GF(2)
T ^4 nil
ideal 0 e3b0c44298fc1c14
delta T = T' + T + T^2*T'^2
counit T = 0
antipode T = T""",
    "kerFV GF(3)": """\
field GF(3)
T ^9 nil
ideal 0 e3b0c44298fc1c14
delta T = T' + T + T^3*T'^6 + T^6*T'^3
counit T = 0
antipode T = 2*T""",
    "mu2 (1,0)": """\
field GF(2)
Y1 ^4 nil
Y2 ^2 nil
ideal 0 e3b0c44298fc1c14
delta Y1 = Y1' + Y1 + Y1^2*Y2'
counit Y1 = 0
antipode Y1 = Y1 + Y1^2*Y2
delta Y2 = Y2' + Y2
counit Y2 = 0
antipode Y2 = Y2""",
    "mu2 (0,1)": """\
field GF(2)
Y1 ^2 nil
Y2 ^4 nil
ideal 0 e3b0c44298fc1c14
delta Y1 = Y1' + Y1
counit Y1 = 0
antipode Y1 = Y1
delta Y2 = Y2' + Y2 + Y2^2*Y1'
counit Y2 = 0
antipode Y2 = Y2 + Y1*Y2^2""",
    "mu2 (1,1)": """\
field GF(2)
Y1 ^4 nil
Y2 ^4 nil
ideal 8 e49703681139a853
delta Y1 = Y1' + Y1 + Y1^2*Y2' + Y1^2*Y1'
counit Y1 = 0
antipode Y1 = Y1 + Y1^2*Y2 + Y1^3
delta Y2 = Y2' + Y2 + Y1^2*Y2' + Y1^2*Y1'
counit Y2 = 0
antipode Y2 = Y2 + Y1^2*Y2 + Y1^3""",
    "im F GF(4) pullback(1,1,2)": """\
field GF(2^2)
X11 ^4 unit
X12 ^4 nil
X21 ^4 nil
X22 ^4 unit
ideal 252 d35f6fbc97b63f01
delta X11 = 1 + X11' + X11
counit X11 = 1
antipode X11 = X11
delta X12 = X11' + X11
counit X12 = 0
antipode X12 = 1 + X11
delta X21 = X11' + X11
counit X21 = 0
antipode X21 = 1 + X11
delta X22 = 1 + X11' + X11
counit X22 = 1
antipode X22 = X11""",
    "im F GF(4) pullback(2,1,1)": """\
field GF(2^2)
X11 ^2 unit
X12 ^2 nil
X21 ^2 nil
X22 ^2 unit
ideal 14 ecb0b0ea7a26bd28
delta X11 = 1 + X11' + X11
counit X11 = 1
antipode X11 = X11
delta X12 = g*X11' + g*X11
counit X12 = 0
antipode X12 = g + g*X11
delta X21 = (g+1)*X11' + (g+1)*X11
counit X21 = 0
antipode X21 = g+1 + (g+1)*X11
delta X22 = 1 + X11' + X11
counit X22 = 1
antipode X22 = X11""",
    "im F GF(2) SL2_kerF(2)": """\
field GF(2)
u11 ^2 nil
u12 ^2 nil
u21 ^2 nil
ideal 0 e3b0c44298fc1c14
delta u11 = u11' + u11 + u12*u21' + u11*u11'
counit u11 = 0
antipode u11 = u11 + u12*u21 + u11*u12*u21
delta u12 = u12' + u12 + u12*u11' + u11*u12' + u12*u12'*u21' + u12*u11'*u12'*u21'
counit u12 = 0
antipode u12 = u12
delta u21 = u21' + u21 + u21*u11' + u11*u21' + u12*u21*u21' + u11*u12*u21*u21'
counit u21 = 0
antipode u21 = u21""",
    "D2/<S>": """\
field GF(2)
Z1 ^2 nil
ideal 0 e3b0c44298fc1c14
delta Z1 = Z1' + Z1
counit Z1 = 0
antipode Z1 = Z1""",
    "D2/<S,T^2>": """\
field GF(2)
Z1 ^2 nil
Z2 ^2 nil
ideal 0 e3b0c44298fc1c14
delta Z1 = Z1' + Z1
counit Z1 = 0
antipode Z1 = Z1
delta Z2 = Z2' + Z2
counit Z2 = 0
antipode Z2 = Z2""",
}


@pytest.mark.parametrize("case,build", [
    ("kerFV GF(2)", lambda: _kerfv(F2)),
    ("kerFV GF(3)", lambda: _kerfv(F3)),
    ("mu2 (1,0)", lambda: _mu2_invariants(1, 0)),
    ("mu2 (0,1)", lambda: _mu2_invariants(0, 1)),
    ("mu2 (1,1)", lambda: _mu2_invariants(1, 1)),
    ("im F GF(4) pullback(1,1,2)", lambda: _frobenius_image(F4, "pullback(1,1,2)")),
    ("im F GF(4) pullback(2,1,1)", lambda: _frobenius_image(F4, "pullback(2,1,1)")),
    ("im F GF(2) SL2_kerF(2)", lambda: _frobenius_image(F2, "SL2_kerF(2)"))],
    ids=lambda x: x if isinstance(x, str) else "")
def test_subgroup_presentations_are_pinned(case, build):
    K, incl, public = build()
    assert _presentation_text(K) == SUBGROUP_PINS[case]
    assert _presentation_text(public) == SUBGROUP_PINS[case]
    assert morphism_check(incl)["ok"]


@pytest.mark.parametrize("case", ["D2/<S>", "D2/<S,T^2>"])
def test_quotient_presentations_are_pinned(case):
    # quotient_group keeps no inclusion; hopf_verify certifies the result
    H = d2()
    S, T = H.carrier.gens()
    gens = {"D2/<S>": [S], "D2/<S,T^2>": [S, T ** 2]}[case]
    Q = quotient_group(H, hopf_ideal_closure(H, gens))
    assert _presentation_text(Q) == SUBGROUP_PINS[case]
    assert hopf_verify(Q)["ok"]


def test_endomorphisms_of_alpha4():
    a = alpha(2)
    endos = enumerate_morphisms(a, a)
    assert len(endos) == 4
    assert sorted(str(f.images["T"]) for f in endos) == [
        "0", "T", "T + T^2", "T^2"]
    assert len(enumerate_morphisms(a, a, iso_only=True)) == 2


def test_endomorphisms_of_alpha2_over_f4():
    a = alpha(1, F4)
    endos = enumerate_morphisms(a, a)
    assert len(endos) == 4
    assert len(enumerate_morphisms(a, a, iso_only=True)) == 3


def test_no_additive_to_multiplicative_maps():
    hom = enumerate_morphisms(mu(1), alpha(1))
    # only the trivial map: images of X must be group-like, 1 is the only one
    assert len(hom) == 1
    assert hom[0].images["X"] == 1


# -- subgroup enumeration ----------------------------------------------------

def ideal_key(ideal):
    return tuple(sorted(tuple(v) for v in ideal.subspace.basis()))


def test_subgroup_lattice_of_d2():
    H = d2()
    A = H.carrier
    S, T = A.gens()
    found = enumerate_subgroups(H)
    assert len(found) == 8
    assert all(i.verify()["ok"] for i in found)
    expected = [
        hopf_ideal_closure(H, []),
        hopf_ideal_closure(H, [S]),
        hopf_ideal_closure(H, [T]),
        hopf_ideal_closure(H, [T ** 2]),
        hopf_ideal_closure(H, [S + T ** 2]),
        hopf_ideal_closure(H, [S, T ** 2]),
        hopf_ideal_closure(H, [S + T, T ** 2]),
        HopfIdeal(H, H.aug_subspace()),
    ]
    assert sorted(i.dim for i in found) == [0, 4, 4, 4, 6, 6, 6, 7]
    assert {ideal_key(i) for i in found} == {ideal_key(i) for i in expected}


def test_subgroup_lattice_of_d1():
    H = d1()
    A = H.carrier
    S, T = A.gens()
    found = enumerate_subgroups(H)
    assert len(found) == 5
    expected = [
        hopf_ideal_closure(H, []),
        hopf_ideal_closure(H, [S]),
        hopf_ideal_closure(H, [T]),
        hopf_ideal_closure(H, [S + T]),
        HopfIdeal(H, H.aug_subspace()),
    ]
    assert {ideal_key(i) for i in found} == {ideal_key(i) for i in expected}


def test_subgroup_lattice_closed_under_ideal_sum():
    # sums of Hopf ideals present intersections of the subgroups
    H = d2()
    found = enumerate_subgroups(H)
    keys = {ideal_key(i) for i in found}
    for a in found:
        for b in found:
            s = subspace_sum(a.subspace, b.subspace)
            assert ideal_key(HopfIdeal(H, s)) in keys


def test_ideal_intersection_need_not_be_coideal():
    # coideals dualise to subalgebras, and those are not closed under sum:
    # (S) meet (T^2) is span{S T^2, S T^3}, an ideal but not a coideal
    H = d2()
    A = H.carrier
    S, T = A.gens()
    m = subspace_intersect(hopf_ideal_closure(H, [S]).subspace,
                           hopf_ideal_closure(H, [T ** 2]).subspace)
    I = HopfIdeal(H, m)
    assert I.dim == 2
    assert I.contains(S * T ** 2) and I.contains(S * T ** 3)
    assert _axioms(I.verify()) == {"coideal"}


def _principal_ideal(H, f):
    """The ideal f A as a HopfIdeal, whether or not it is one."""
    A = H.carrier
    return HopfIdeal(H, subspace_from(H.field, A.dim, [
        A.to_vector(f * A.poly({m: 1})) for m in A.basis_monomials()]))


def test_ideal_spans_that_are_not_coideals():
    for H, gen in ((d2(), lambda A: A.var("S") * A.var("T")),
                   (alpha(3), lambda A: A.var("T") ** 3)):
        rep = _principal_ideal(H, gen(H.carrier)).verify()
        assert rep["ok"] is False and "coideal" in _axioms(rep)
        assert not {"ideal", "augmented"} & _axioms(rep)
    # each basis element of (T^3) in k[T]/(T^8) leaves the legs T^2 and T
    H = alpha(3)
    rep = _principal_ideal(H, H.carrier.var("T") ** 3).verify()
    assert _triples(rep) == [("coideal", "T^3", "T^2"), ("coideal", "T^3", "T")]


def test_a_span_that_is_no_ideal_is_read_through_its_ideal():
    # span{T^3 + T} in k[T]/(T^4) is no ideal, and it generates (T), as
    # T (T^3 + T) = T^2.  Read off that span alone, Q would have dimension
    # 3 and delta(T^3 + T) two escaping legs; through (T) it has neither
    H = alpha(2)
    A = H.carrier
    T = A.var("T")
    f = T ** 3 + T
    V = HopfIdeal(H, subspace_from(F2, A.dim, [A.to_vector(f)]))
    I = _principal_ideal(H, T)
    assert V._quotient()[0].dim == I._quotient()[0].dim == 1
    assert V._escaping_legs(f) == I._escaping_legs(f) == []
    assert not V._is_hopf() and "ideal" in _axioms(V.verify())


def test_closure_grows_to_hopf_ideal():
    H = d2()
    A = H.carrier
    S, T = A.gens()
    # (S T) alone is an algebra ideal but not a coideal; the closure is
    # forced all the way up to the augmentation ideal
    I = hopf_ideal_closure(H, [S * T])
    assert I.dim == 7 == H.dim - 1
    assert I.verify()["ok"]


def test_closure_of_an_augmentation_seed_stays_a_proper_ideal():
    # (X11 - 1) + X12 lies in ker eps, but delta of it has legs with
    # counit 1, units of the local carrier: adjoined whole they closed the
    # ideal to all of A, a subgroup of order 0; less their counit they
    # stay in ker eps
    G = zoo_parse("pullback(1,1,1)", F4)
    x = dict(zip(G.carrier.vars, G.carrier.gens()))
    I = hopf_ideal_closure(G, [x["X11"] - 1 + x["X12"]])
    assert I.dim < G.dim and I.verify()["ok"]


def _dense_escaping_legs(H, V, f):
    """The legs of delta(f) escaping V ox A + A ox V, off the dense
    coproduct matrix of f: its rows (one per first-leg basis monomial)
    reduced by V, then the columns of what is left reduced by V; the
    surviving columns' residues, then the reduced rows cut to those
    columns."""
    A, F = H.carrier, H.field
    split, pos = H.t2().split_mono, A._positions()
    rows = {}
    for m, c in f.d.items():
        for mono, c2 in H.delta_mono(m).items():
            m1, m2 = split(mono)
            row = rows.setdefault(pos[m1], [0] * A.dim)
            row[pos[m2]] = F.add(row[pos[m2]], F.mul(c, c2))
    reduced = {}
    for i, row in rows.items():
        r = V.residue(row)
        if any(r):
            reduced[i] = r
    cols = {}
    for i, row in reduced.items():
        for j, c in enumerate(row):
            if c:
                cols.setdefault(j, [0] * A.dim)[i] = c
    out, surviving = [], set()
    for j, col in cols.items():
        r = V.residue(col)
        if any(r):
            out.append(A.from_vector(r))
            surviving.add(j)
    for row in reduced.values():
        keep = [c if j in surviving else 0 for j, c in enumerate(row)]
        if any(keep):
            out.append(A.from_vector(keep))
    return out


def _reference_closure(H, seeds):
    """hopf_ideal_closure through the dense legs, re-spanned from the
    whole basis each round; on the way, each basis element's legs from
    HopfIdeal._escaping_legs are checked against the dense ones."""
    A = H.carrier
    V = _ideal_span_coords(A, [s for s in seeds if s.d])[0]
    for _ in range(A.dim + 1):
        ideal = HopfIdeal(H, V)
        add = []
        for f in ideal.basis_polys():
            legs = _dense_escaping_legs(H, V, f)
            assert Counter(ideal._escaping_legs(f)) == Counter(legs)
            add += legs
            sf = H.antipode_map(f)
            if not ideal.contains(sf):
                add.append(sf)
        if not add:
            break
        old = V.dim
        V = _ideal_span_coords(A, ideal.basis_polys() + add)[0]
        if V.dim == old:
            break
    return V


@functools.lru_cache(maxsize=None)
def _closure_group(k):
    return (d2, lambda: alpha(3), lambda: zoo_parse("H(1,3)", F2),
            lambda: SL2_kerF(1), lambda: zoo_parse("PGL2_kerF(1)", F2),
            lambda: SL2_kerF(1, F3), lambda: zoo_parse("D(1)", F3),
            lambda: alpha(2, F4),
            lambda: zoo_parse("Hunip(s1=1,s2=1,n=2)", F3))[k]()


@settings(max_examples=120, deadline=None)
@given(data=st.data(), k=st.integers(0, 8))
def test_closure_matches_the_dense_coproduct_legs(data, k):
    # free carriers and one quotient (Hunip over GF(3)), over GF(2),
    # GF(3) and GF(4); one or two random seeds without counit
    H = _closure_group(k)
    A = H.carrier
    seeds = [f - A.scalar(H.counit_map(f))
             for f in (random_poly(data.draw, A, max_terms=3)
                       for _ in range(data.draw(st.integers(1, 2))))]
    want = _reference_closure(H, seeds)
    got = hopf_ideal_closure(H, seeds)
    assert got.subspace.basis() == want.basis()
    assert got._is_hopf() and got.verify()["ok"]


def _ideals_met(A):
    """Every ideal that enumerate_subgroups' walk through _ideal_covers
    meets in the carrier A, Hopf or not."""
    one_pos = A.to_vector(A.one()).index(1)
    muls = [[A.to_vector(x * A.poly({m: 1})) for m in A.basis_monomials()]
            for x in A.gens()]
    zero = Subspace(A.field, A.dim)
    ideals, level = {(): zero}, [zero]
    while level:
        up = []
        for I in level:
            for J in _ideal_covers(I, muls, one_pos):
                key = tuple(map(tuple, J.basis()))
                if key not in ideals:
                    ideals[key] = J
                    up.append(J)
        level = up
    return list(ideals.values())


@pytest.mark.parametrize("cid", ["D(2)", "alpha(3)", "H(1,3)", "SL2_kerF(1)",
                                 "PGL2_kerF(1)"])
def test_hopf_test_on_generators_matches_verify(cid):
    # every ideal the subgroup walk meets over GF(2), Hopf or not
    H = zoo_parse(cid, F2)
    ideals = [HopfIdeal(H, V) for V in _ideals_met(H.carrier)]
    oks = [I.verify()["ok"] for I in ideals]
    assert [I._is_hopf() for I in ideals] == oks
    assert any(oks) and not all(oks)


def _reference_ideal_coords(A, polys):
    """The ideal of A the elements generate, closed through Poly products
    in basis coordinates."""
    S = Subspace(A.field, A.dim)
    queue = []
    for g in polys:
        if g.d and S.insert(A.to_vector(g)):
            queue.append(g)
    while queue:
        f = queue.pop()
        for x in A.gens():
            w = f * x
            if w.d and S.insert(A.to_vector(w)):
                queue.append(w)
    return S


@functools.lru_cache(maxsize=None)
def _carrier(k):
    if k == 0:
        G = alpha(3)
        T = G.carrier.var("T")
        return subgroup_from_elements(G, [("U", T ** 2), ("V", T ** 4)])[0].carrier
    if k >= 6:
        # a relation x*y = x^3 that a seed y interacts with
        B = Algebra((F2, F3)[k - 6], ["x", "y"], [4, 3])
        x, y = B.gens()
        return quotient_algebra(B, [x * y - x ** 3], eliminate=False)
    return (d2, lambda: alpha(2, F4), lambda: SL2_kerF(1),
            lambda: SL2_kerF(1, F3), lambda: SL2_kerF(1, F4))[k - 1]().carrier


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(0, 7))
def test_ideal_coords_match_the_poly_product_closure(data, k):
    # free carriers, quotients with generators and one read off the images
    # of its generators, over GF(2), GF(3) and GF(4)
    A = _carrier(k)
    # sparse seeds without constant term: a unit would give the whole ring
    polys = [f - A.scalar(f.constant_term())
             for f in (random_poly(data.draw, A, max_terms=3)
                       for _ in range(data.draw(st.integers(0, 2))))]
    got = _ideal_span_coords(A, polys)[0]
    want = _reference_ideal_coords(A, polys)
    assert got.pivots() == want.pivots()
    assert got.basis() == want.basis()


def _echelon_quotient(A, S):
    """A modulo an ideal S given in coordinates, (Q, pi, gens), read off
    S's echelon rows with no division.

    S's rows pivot on their largest key and are fully reduced, so the row
    with pivot t is t - nf(t), and the ideal's leading keys in the shell
    are A's own and the pivots.  So A's Groebner basis and the rows with
    divisor-minimal pivots (gens, which generate S) are a Groebner basis.
    """
    basis, F = A.basis_monomials(), A.field

    def divides(s, t):
        return all(a <= b for a, b in zip(A.exponents(s), A.exponents(t)))

    gens, leads = [], []
    # pivots ascend by key, and a divisor of a key is no larger
    for l in S.pivots():
        t = basis[l]
        if not any(divides(s, t) for s in leads):
            leads.append(t)
            res = S.residue([int(i == l) for i in range(A.dim)])
            row = {basis[i]: F.neg(c) for i, c in enumerate(res) if c}
            row[t] = 1
            gens.append(Poly(A, row))
    own = list(A.groebner) if isinstance(A, QuotientAlgebra) else []
    Q = QuotientAlgebra(A.ambient,
                        own + [Poly(A.ambient, g.d) for g in gens])

    def pi(m):
        r = Q.reduce_term(m)
        return {m: 1} if r is None else r

    return Q, pi, gens


def _reference_quotient(H, V):
    """HopfIdeal._quotient through x f in V for every basis element f and
    variable x, and the echelon rows of the ideal V generates."""
    A = H.carrier
    polys = [A.from_vector(v) for v in V.basis()]
    ideal = all(V.contains(A.to_vector(x * f)) for f in polys for x in A.gens())
    S = V if ideal else _reference_ideal_coords(A, polys)
    return _echelon_quotient(A, S) + (ideal,)


@functools.lru_cache(maxsize=None)
def _oracle_group(k):
    return (lambda: alpha(3), lambda: SL2_kerF(1),
            lambda: pullback(1, 1, 1), lambda: SL2_kerF(1, F3),
            lambda: alpha(2, F4), lambda: pullback(1, 2, 1, F4),
            lambda: zoo_parse("D(1)", F5), lambda: zoo_parse("D(1)", F9))[k]()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), k=st.integers(0, 7))
def test_quotient_matches_the_echelon_rows(data, k):
    # free carriers over GF(2), GF(3), GF(4), GF(5) and GF(9), and the
    # pullback carriers (a quotient with unit generators) over GF(2) and
    # GF(4); the span is the ideal of a few elements, or the bare span of
    # them, which is mostly no ideal
    H = _oracle_group(k)
    A = H.carrier
    polys = [random_poly(data.draw, A, max_terms=3)
             for _ in range(data.draw(st.integers(0, 3)))]
    if data.draw(st.booleans()):
        V = _reference_ideal_coords(A, polys)
    else:
        V = subspace_from(A.field, A.dim, [A.to_vector(f) for f in polys])
    Q, pi, gens, ideal = HopfIdeal(H, V)._quotient()
    Q0, pi0, gens0, ideal0 = _reference_quotient(H, V)
    assert Q.basis_monomials() == Q0.basis_monomials()
    assert all(pi(m) == pi0(m) for m in A.basis_monomials())
    assert gens == gens0
    assert ideal == ideal0


def test_closed_subgroup_keeps_the_ideal_of_a_subspace_carrier():
    # K = k[U, V]/(U^4, V^2, V - U^2) is read off the images of U and V,
    # with no generator list; cutting out V must keep V = U^2 and leave
    # k[U]/(U^2)
    G = alpha(3)
    T = G.carrier.var("T")
    K, _ = subgroup_from_elements(G, [("U", T ** 2), ("V", T ** 4)])
    assert not K.carrier.ideal_gens
    assert K.carrier.ambient_dim() - K.carrier.dim == 4
    S = closed_subgroup(K, [K.carrier.var("V")])
    assert S.dim == 2 and hopf_verify(S)["ok"]


def test_equations_on_another_carrier_are_moved_onto_this_one():
    # P eliminates u12, so u21 built on SL2_kerF(1)'s carrier has P's
    # names under another key layout; read raw, it broke closed_subgroup
    # (IndexError) and closed hopf_ideal_closure to the unit ideal
    G = SL2_kerF(1, F2)
    P = closed_subgroup(G, [G.carrier.var("u12")])
    A, u21 = P.carrier, G.carrier.var("u21")
    assert A.vars == ("u11", "u21") and P.dim == 4
    S = closed_subgroup(P, [u21])
    assert S.dim == 2 and presentations_equal(
        S, closed_subgroup(P, [A.var("u21")]))
    I = hopf_ideal_closure(P, [u21])
    assert I.basis_polys() == [A.var("u21"), A.var("u11") * A.var("u21")]


def test_images_on_another_carrier_are_moved_onto_the_target():
    # the identity of D(1) written on (T, S) in place of (S, T): read raw,
    # morphism_check raised BadParams and tangent_map read foreign keys
    G = D(1)
    B = Algebra(F2, ("T", "S"), (2, 2))
    f = Morphism(G, G, {nm: B.var(nm) for nm in G.carrier.vars})
    assert f.images == {nm: G.carrier.var(nm) for nm in G.carrier.vars}
    assert morphism_check(f)["ok"] and f.is_bijective()
    own = G.carrier.var("S")
    assert Morphism(G, G, {"S": own, "T": B.var("T")}).images["S"] is own


# small carriers, over every field, for the evaluation-kernel oracle
EVAL_CARRIERS = (lambda F: alpha(2, F), lambda F: alpha(3, F),
                 lambda F: mu(2, F), lambda F: zoo_parse("D(1)", F),
                 lambda F: zoo_parse("H(1,2)", F), witt2,
                 lambda F: SL2_kerF(1, F))


def shell_kernel_quotient(shell, images, A):
    """The shell modulo the kernel of its evaluation at ``images``, by
    Buchberger over the shell-wide kernel: the ``column_kernel`` of the
    images of the shell monomials."""
    ev = _mono_images(shell, images, A)
    kernel = column_kernel(A.field, [ev(m) for m in shell.basis_monomials()])
    return quotient_algebra(shell, [shell.from_vector(r) for r in kernel],
                            eliminate=False)


def _matches_shell_wide_kernel(G, named):
    """subgroup_from_elements reads the same carrier off the named
    elements as ``shell_kernel_quotient``, each unit u taken as
    u eps(u)^-1; where they generate no sub-Hopf algebra, the walk that
    it runs is checked on its own."""
    A, F = G.carrier, G.field
    eps = {nm: G.counit_map(x) for nm, x in named}
    normed = {nm: x * F.inv(eps[nm]) if eps[nm] else x for nm, x in named}
    shell = Algebra(F, list(normed),
                    [_unit_order(x) if eps[nm] else _nil_order(x)
                     for nm, x in normed.items()],
                    ["unit" if eps[nm] else "nil" for nm in normed])
    want = shell_kernel_quotient(shell, normed, A)
    try:
        got = subgroup_from_elements(G, named)[0].carrier
    except VerifyError:
        ev = _mono_images(shell, normed, A)
        got, _ = _evaluation_quotient(
            shell, lambda m: A.to_vector(Poly(A, ev(m))), A.dim)
    assert [g.d for g in got.groebner] == [g.d for g in want.groebner]
    assert got.basis_monomials() == want.basis_monomials()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(0, len(EVAL_CARRIERS) - 1),
       F=st.sampled_from([F2, F3, F5, F4, F9]))
def test_subgroup_carrier_matches_the_shell_wide_kernel(data, k, F):
    # 1-3 elements, nil (counit 0) or unit (counit 1), on a shell of at
    # most 256 monomials; random elements mostly generate no sub-Hopf
    # algebra
    G = EVAL_CARRIERS[k](F)
    A = G.carrier
    named, orders = [], []
    for i in range(data.draw(st.integers(1, 3))):
        x = random_poly(data.draw, A, max_terms=3)
        x -= A.scalar(G.counit_map(x))
        if not x:
            x = A.gens()[0] - A.scalar(G.counit_map(A.gens()[0]))
        if data.draw(st.booleans()):
            x += 1
            order = _unit_order(x)
        else:
            order = _nil_order(x)
        if named and order * math.prod(orders) > 256:
            break
        named.append(("Y%d" % i, x))
        orders.append(order)
    _matches_shell_wide_kernel(G, named)


@pytest.mark.parametrize("F,c", [(F3, 2), (F4, F4.gen)],
                         ids=["GF(3) T+2", "GF(4) T+g"])
def test_subgroup_carrier_of_a_unit_with_counit_not_one(F, c):
    # T + c has no p-power order, (T + c)/c has; the walk takes the
    # latter, and the inclusion sends Y there
    G = alpha(2, F)
    named = [("Y", G.carrier.var("T") + c)]
    _matches_shell_wide_kernel(G, named)
    K, incl = subgroup_from_elements(G, named)
    assert K.dim == G.dim and K.counit["Y"] == 1
    assert morphism_check(incl)["ok"]


def test_subgroup_carrier_at_scale():
    # the shell of (T, T^2, T^4) in GF(2) alpha(5) has 32 * 16 * 8 = 4096
    # monomials; the walk meets 32 staircase monomials and two leads
    G = alpha(5)
    T = G.carrier.var("T")
    K, _ = subgroup_from_elements(G, [("Y1", T), ("Y2", T ** 2),
                                      ("Y4", T ** 4)])
    assert K.dim == 32
    assert [str(g) for g in K.carrier.groebner] == ["Y2 + Y1^2", "Y4 + Y1^4"]


def test_requotient_keeps_the_carriers_aliases():
    # Hunip(1,1,2) over GF(3) is a quotient of the chart: u22 is the
    # chart's alias, and u11, u21 are eliminated to multiples of u12
    H = zoo_parse("Hunip(s1=1,s2=1,n=2)", F3)
    A = H.carrier
    u12 = A.var("u12")
    want = {"u11": 2 * u12, "u21": 2 * u12, "u22": u12}
    assert {nm: A.var(nm) for nm in want} == want
    # cutting it down again keeps every alias
    K = closed_subgroup(H, [A.var("u22") ** 3])
    B = K.carrier
    assert K.dim == 3
    v = B.var("u12")
    assert {nm: B.var(nm) for nm in want} == {
        "u11": 2 * v, "u21": 2 * v, "u22": v}
    # and so does a subgroup of the chart itself
    G = SL2_kerF(1, F3)
    C = G.carrier
    T = closed_subgroup(G, [C.var("u12"), C.var("u21")])
    assert T.dim == 3 and T.carrier.vars == ("u11",)
    u11 = T.carrier.var("u11")
    assert T.carrier.var("u22") * (1 + u11) == -u11


def test_enumeration_guards():
    # the walk takes any field and any carrier; it counts the ideals it holds
    with pytest.raises(SizeGuard) as exc:
        enumerate_subgroups(SL2_kerF(1, F3))
    assert exc.value.what == "enumerate_subgroups ideals"
    with pytest.raises(BadParams):
        enumerate_subgroups(mu(1))
    # the subalgebra walk counts its subspaces before it starts: those of
    # GF(2^8)^4, the Lie algebra of D(1) x D(1)
    D1 = zoo_parse("D(1)", Field(2, 8))
    with pytest.raises(SizeGuard) as exc:
        restricted_subalgebras(hopf_product(D1, D1))
    assert (exc.value.what, exc.value.size) == (
        "restricted_subalgebras subspaces", 4345561861)


@pytest.mark.parametrize("F,cid,want", [
    (F2, "alpha(6)", [1] * 7), (F2, "D(3,A)", [1, 3, 3, 3, 1]),
    (F2, "witt2", [1, 1, 3, 1, 1]), (F2, "H(1,4)", [1] * 5),
    (F2, "cocycle_ext(a=1,n=2)", [1, 3, 3, 3, 1]),
    (F4, "alpha(1)", [1, 1]), (F4, "D(1)", [1, 5, 1]),
    (F4, "D(2)", [1, 5, 5, 1]), (F4, "D(3,A)", [1, 5, 5, 5, 1]),
    (F4, "alpha(3)", [1] * 4), (F3, "alpha(2)", [1] * 3),
    (F3, "D(1)", [1, 4, 1]), (F5, "alpha(1)", [1, 1]),
    pytest.param(F2, hopf_product(alpha(2), alpha(2)), [1, 3, 7, 3, 1],
                 id="GF2-alpha(2)xalpha(2)")],
    ids=lambda x: x.name if isinstance(x, Field) else
    x if isinstance(x, str) else "")
def test_subgroup_lattices_past_gf2_and_dim_8(F, cid, want):
    # the subgroups counted by order p^0, p^1, ...; D(1) is
    # alpha_p x alpha_p, whose q + 1 subgroups of order p are its lines.
    # cid is a zoo id or a Hopf algebra built in place
    H = zoo_parse(cid, F) if isinstance(cid, str) else cid
    found = enumerate_subgroups(H)
    orders = Counter(H.dim - I.dim for I in found)
    assert [orders[F.p ** e] for e in range(len(want))] == want
    assert sum(want) == len(found)
    for I in found:
        assert I.verify()["ok"] and H.dim % (H.dim - I.dim) == 0


# -- normality, centrality, quotients ----------------------------------------

def _normal_per_basis(H, ideal):
    """is_normal's adjoint test on every basis element of the ideal, in
    Q ox A for Q the carrier divided by that basis (``_requotient``)."""
    A = H.carrier
    Q = _requotient(A, ideal.basis_polys())
    T = Q.tensor(A)
    S, pi = _mono_images(A, H.antipode, A), _mono_images(A, {}, Q)
    legs = (lambda m: T.embed(Poly(A, S(m)), 1).d,
            lambda m: T.embed(Poly(Q, pi(m)), 0).d,
            lambda m: T.embed(Poly(A, {m: 1}), 1).d)
    return not any(multiply_legs(_coassoc_sides(H, H.delta_map(f))[0],
                                 legs, T) for f in ideal.basis_polys())


def test_normal_central_classification():
    H = d2()
    A = H.carrier
    S, T = A.gens()
    aug = HopfIdeal(H, H.aug_subspace())
    cases = [
        ([], True, False),            # the whole group
        ([S], True, False),
        ([T], False, False),
        ([T ** 2], True, False),
        ([S + T ** 2], True, False),
        ([S, T ** 2], True, True),
        ([S + T, T ** 2], False, False),
    ]
    for gens, normal, central in cases:
        I = hopf_ideal_closure(H, gens)
        assert is_normal(H, I)[0] is normal, gens
        assert _normal_per_basis(H, I) is normal, gens
        assert is_central(H, I) is central, gens
    assert is_normal(H, aug)[0] and is_central(H, aug)
    assert _normal_per_basis(H, aug)


def test_normality_on_generators_matches_the_basis():
    # GF(2) SL2_kerF(2): ker F and (u12^2) are normal, (u12) is not
    G = SL2_kerF(2)
    u12 = G.carrier.var("u12")
    for seeds, dim, normal in (([x ** 2 for x in G.gens()], 56, True),
                               ([u12 ** 2], 32, True), ([u12], 48, False)):
        I = hopf_ideal_closure(G, seeds)
        assert I.dim == dim
        ok, witness = is_normal(G, I)
        assert ok is normal and _normal_per_basis(G, I) is normal
        assert (witness is None) is normal
    # every subgroup of GF(2) PGL2_kerF(1), among them one whose first
    # generator the adjoint map kills and a later one it does not
    P = zoo_parse("PGL2_kerF(1)", F2)
    oks = [is_normal(P, I)[0] for I in enumerate_subgroups(P)]
    assert oks == [_normal_per_basis(P, I) for I in enumerate_subgroups(P)]
    assert any(oks) and not all(oks)


def test_quotient_groups_of_d2():
    H = d2()
    A = H.carrier
    S, T = A.gens()
    QS = quotient_group(H, hopf_ideal_closure(H, [S]))
    assert QS.dim == 2
    assert presentations_equal(QS, alpha(1), rename={"Z1": "T"})
    QT2 = quotient_group(H, hopf_ideal_closure(H, [T ** 2]))
    assert QT2.dim == 2
    assert presentations_equal(QT2, alpha(1), rename={"Z1": "T"})
    QC = quotient_group(H, hopf_ideal_closure(H, [S, T ** 2]))
    assert QC.dim == 4
    assert find_isomorphism(QC, d1()) is not None
    assert quotient_group(H, HopfIdeal(H, H.aug_subspace())).dim == 8
    assert quotient_group(H, hopf_ideal_closure(H, [])).dim == 1


def test_quotient_by_non_normal_raises():
    H = d2()
    I = hopf_ideal_closure(H, [H.carrier.var("T")])
    with pytest.raises(NotNormal):
        quotient_group(H, I)


# -- products ----------------------------------------------------------------

def test_product_of_additive_kernels():
    P = hopf_product(alpha(1), alpha(1))
    assert P.dim == 4
    assert hopf_verify(P)["ok"]
    assert P.carrier.vars == ("T", "T2")
    assert presentations_equal(P, d1(), rename={"T": "S", "T2": "T"})
    assert is_cocommutative(P)
    assert len(enumerate_subgroups(P)) == 5


def test_mixed_product():
    P = hopf_product(alpha(1), mu(1))
    assert hopf_verify(P)["ok"]
    R = Algebra(F2, ["t"], [2])
    pts = points_group(P, R)
    assert pts.order == 4 and pts.check_axioms() and pts.is_abelian()


# -- points ------------------------------------------------------------------

def test_points_of_d2_are_nonabelian():
    H = d2()
    R = Algebra(F2, ["u", "v"], [2, 4])
    pts = points_group(H, R)
    assert pts.order == 8192
    pu = tuple(tuple(R.to_vector(x)) for x in (R.var("u"), R.zero()))
    pv = tuple(tuple(R.to_vector(x)) for x in (R.zero(), R.var("v")))
    ab, ba = pts.mul(pu, pv), pts.mul(pv, pu)
    u, v = R.gens()
    assert [R.from_vector(list(c)) for c in ab] == [u, v + u * v ** 2]
    assert [R.from_vector(list(c)) for c in ba] == [u, v]
    assert ab != ba
    assert pts.mul(pu, pts.inv(pu)) == pts.identity
    assert pts.mul(pv, pts.inv(pv)) == pts.identity


def test_points_of_d2_over_small_ring():
    # with square-zero coefficients the cocycle term dies and the law
    # degenerates to addition
    H = d2()
    R = Algebra(F2, ["t"], [2])
    pts = points_group(H, R)
    assert pts.order == 4
    assert pts.check_axioms()
    assert pts.is_abelian()


def test_points_of_alpha4():
    pts = points_group(alpha(2), Algebra(F2, ["t"], [4]))
    assert pts.order == 8
    assert pts.check_axioms() and pts.is_abelian()
    for a in pts.elements:
        assert pts.mul(a, a) == pts.identity


def test_points_of_mu():
    pts = points_group(mu(1), Algebra(F2, ["t"], [2]))
    assert pts.order == 2 and pts.check_axioms()
    pts = points_group(mu(2), Algebra(F2, ["t"], [4]))
    assert pts.order == 8
    assert pts.check_axioms() and pts.is_abelian()
    squares = {pts.mul(a, a) for a in pts.elements}
    assert len(squares) == 2  # exponent four, not elementary abelian


def test_points_field_mismatch():
    with pytest.raises(BadParams):
        points_group(alpha(1), Algebra(F4, ["t"], [2]))


def test_points_refuse_a_laurent_test_algebra():
    with pytest.raises(BadParams, match="laurent"):
        points_group(alpha(1), Algebra(F2, ["t"], [0], ["laurent"]))


def test_points_guard_counts_the_listed_elements(monkeypatch):
    # GF(2)[t]/(t^32) has 2^32 elements: refused before any is listed
    def refuse(R):
        raise AssertionError("the elements were listed")

    monkeypatch.setattr(hopf, "_all_elements", refuse)
    with pytest.raises(SizeGuard) as exc:
        points_group(alpha(1), Algebra(F2, ["t"], [32]))
    assert exc.value.what == "points_group test algebra"


def test_points_of_a_large_carrier():
    # the carrier's dimension (512) costs nothing: over GF(2)[t]/(t^2)
    # a point is I + tX with X in sl2
    pts = points_group(SL2_kerF(3), Algebra(F2, ["t"], [2]))
    assert pts.order == 8 and pts.check_axioms()


# -- presentations -----------------------------------------------------------

def test_presentations_distinguish_kinds_and_orders():
    assert not presentations_equal(alpha(2), mu(2), rename={"T": "X"})
    assert not presentations_equal(alpha(2), d1())
    assert not presentations_equal(d1(), d2())
    assert presentations_equal(d2(), d2())


# -- the restricted Lie algebra ----------------------------------------------

def test_cocommutativity_of_d2_alpha_and_mu():
    # the dual algebra is commutative exactly when H is cocommutative
    assert not is_cocommutative(d2())
    assert is_cocommutative(alpha(2))
    assert is_cocommutative(mu(2))


def test_lie_data():
    basis, bracket, ppower = lie_algebra(d2())
    assert len(basis) == 2
    zero = [0, 0]
    for x in basis:
        for y in basis:
            assert bracket(x, y) == zero
        assert ppower(x) == zero

    basis, _, ppower = lie_algebra(mu(1))
    assert len(basis) == 1
    assert ppower(basis[0]) == basis[0]  # toral direction

    basis, _, ppower = lie_algebra(alpha(1))
    assert len(basis) == 1
    assert ppower(basis[0]) == [0]  # additive direction

    basis, _, ppower = lie_algebra(alpha(2))
    assert len(basis) == 1 and ppower(basis[0]) == [0]


def _lie_triple(H):
    """(dim L, rank of the p-map on the basis, dim [L, L]) of Lie(H),
    checking that L is closed under both operations."""
    basis, bracket, ppower = lie_algebra(H)
    n = len(H.carrier.vars)
    powers = [ppower(u) for u in basis]
    brackets = [bracket(u, v) for u in basis for v in basis]
    L = subspace_from(H.field, n, basis)
    assert all(L.contains(w) for w in powers + brackets)
    return (L.dim, subspace_from(H.field, n, powers).dim,
            subspace_from(H.field, n, brackets).dim)


@pytest.mark.parametrize("F,cid,triple", [
    (F2, "SL2_kerF(1)", (3, 1, 1)), (F2, "SL2_kerF(2)", (3, 1, 1)),
    (F4, "SL2_kerF(1)", (3, 1, 1)), (F3, "SL2_kerF(1)", (3, 1, 3)),
    (F9, "SL2_kerF(1)", (3, 1, 3)), (F5, "SL2_kerF(1)", (3, 1, 3)),
    (F2, "mu(2)", (1, 1, 0)), (F2, "witt2", (2, 1, 0)),
    (F3, "witt2", (2, 1, 0)),
    (F2, "semidirect(D(1),mu(1),w=[-1,1])", (3, 1, 2)),
    (F2, "pullback(1,1,1)", (3, 1, 1)), (F2, "alpha(3)", (1, 0, 0)),
    (F2, "D(2,A)", (2, 0, 0)), (F2, "D(2,B)", (2, 0, 0)),
    (F2, "cocycle_ext(a=1,n=2)", (2, 0, 0)),
    # past DIM_LIMIT for a dim^2 table of the dual (dim 4096, 32768, 15625)
    (F2, "SL2_kerF(4)", (3, 1, 1)), (F2, "SL2_kerF(5)", (3, 1, 1)),
    (F5, "SL2_kerF(2)", (3, 1, 3))],
    ids=lambda x: x.name if isinstance(x, Field) else (
        x if isinstance(x, str) else "(%d,%d,%d)" % x))
def test_lie_data_is_pinned(F, cid, triple):
    # in characteristic 2, [sl2, sl2] is the central line k*h; in odd
    # characteristic sl2 is perfect
    assert _lie_triple(zoo_parse(cid, F)) == triple


_LIE_CATALOGUE = ["alpha(2)", "mu(2)", "D(1)", "D(2,B)", "H(a=1,n=1)",
                  "D(2,A)", "witt2", "kerFV", "cocycle_ext(a=1,n=2)",
                  "SL2_kerF(1)", "semidirect(D(1),mu(1),w=[-1,1])",
                  "Hunip(s1=1,s2=1,n=1)"]


@pytest.mark.parametrize("F,cid", (
    [(F, cid) for F in (F2, F3, F5, F4, F9) for cid in _LIE_CATALOGUE]
    + [(F, "SL2_kerF(2)") for F in (F2, F3, F4)]
    + [(F2, "pullback(1,1,2)"), (F4, "pullback(1,1,1)"),
       (F2, "semidirect(D(2),mu(1),w=[-1,1])"), (F2, "mu(6)")]),
    ids=lambda x: x.name if isinstance(x, Field) else x)
def test_frobenius_kernel_has_the_lie_algebra_of_the_group(F, cid):
    # ker F is the height-one subgroup with Lie(G): dim p^(dim Lie G)
    H = zoo_parse(cid, F)
    n = len(lie_algebra(H)[0])
    K = frobenius_kernel(H)
    assert K.dim == F.p ** n
    assert len(lie_algebra(K)[0]) == n


def _convolution_ppower(H, u):
    """u^(*p) on the generators by the convolution recursion
    u^(*j)(m) = sum c u^(*(j-1))(m1) u(m2) over delta(m) = sum c m1 ox m2,
    on delta of monomials: an oracle for ``lie_algebra``'s p-map.  A
    monomial of degree d in the counit-zero variables lies in I^d for the
    augmentation ideal I, which u^(*j) kills for d > j."""
    A, F = H.carrier, H.field
    split = H.t2().split_mono
    aug = [i for i, c in enumerate(H._eps_codes) if not c]
    _, value = hopf._leibniz(H)
    memo = {}

    def conv(j, m):
        if j == 1:
            return value(u, m)
        if sum(A.exponents(m)[i] for i in aug) > j:
            return 0
        if (j, m) not in memo:
            acc = 0
            for mono, c in H.delta_mono(m).items():
                m1, m2 = split(mono)
                b = value(u, m2)
                if b:
                    acc = F.add(acc, F.mul(c, F.mul(conv(j - 1, m1), b)))
            memo[(j, m)] = acc
        return memo[(j, m)]

    # x_i itself, unreduced: its key in the free ambient
    return [conv(F.p, next(iter(A.ambient.var(nm).d))) for nm in A.vars]


def _combination(F, basis, coeffs):
    out = [0] * len(basis[0])
    for c, x in zip(coeffs, basis):
        F.axpy(out, c, x, range(len(out)))
    return out


F25 = Field(5, 2)
_PMAP_GROUPS = ["SL2_kerF(1)", "PGL2_kerF(1)", "D(1)", "mu(1)", "witt2",
                "semidirect(D(1),mu(1),w=[-1,1])"]


@pytest.mark.parametrize("F,cid", (
    [(F, cid) for F in (F2, F4, F3, F9, F5, F25) for cid in _PMAP_GROUPS]
    + [(F, cid) for F in (F2, F4)
       for cid in ("pullback(1,0,1)", "pullback(1,1,2)", "H(a=1,n=3)",
                   "kerFV", "mu(2)")]
    + [(F2, "SL2_kerF(2)"), (F3, "SL2_kerF(2)"), (F5, "SL2_kerF(2)")]),
    ids=lambda x: x.name if isinstance(x, Field) else x)
def test_ppower_is_the_convolution_power(F, cid):
    # the product of p points eps + t_k u agrees with u^(*p) by the
    # convolution over delta of monomials, on the basis and on random
    # combinations; pullback has unit-kind generators (eps = 1), and on
    # pullback(1,1,2) the points read eps through the powers X11'^7
    H = zoo_parse(cid, F)
    basis, _, ppower = lie_algebra(H)
    rng = random.Random(cid + F.name)
    vectors = basis + [_combination(F, basis, [rng.randrange(F.q)
                                               for _ in basis])
                       for _ in range(8)]
    for u in vectors:
        assert ppower(u) == _convolution_ppower(H, u)


@functools.lru_cache(maxsize=None)
def _lie_of(cid, F):
    return lie_algebra(zoo_parse(cid, F))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ppower_satisfies_jacobsons_formula(data):
    # (u + v)^[p] = u^[p] + v^[p] + sum_i s_i(u, v), where i s_i(u, v) is
    # the coefficient of t^(i-1) in ad(t u + v)^(p-1)(u); and
    # (c u)^[p] = c^p u^[p]
    F = data.draw(st.sampled_from([F2, F4, F3, F9, F5, F25]))
    cid = data.draw(st.sampled_from(["SL2_kerF(1)", "PGL2_kerF(1)",
                                     "semidirect(D(1),mu(1),w=[-1,1])"]))
    basis, bracket, ppower = _lie_of(cid, F)
    codes = st.lists(st.integers(0, F.q - 1), min_size=len(basis),
                     max_size=len(basis))
    u = _combination(F, basis, data.draw(codes))
    v = _combination(F, basis, data.draw(codes))
    c = data.draw(st.integers(0, F.q - 1))

    def add(x, y):
        return [F.add(a, b) for a, b in zip(x, y)]

    zero = [0] * len(u)
    # ad(t u + v)^(p-1)(u) as its coefficients of t^0, t^1, ...
    coeffs = [u]
    for _ in range(F.p - 1):
        # [t u + v, sum_k w_k t^k]: t^k gets [v, w_k] + [u, w_(k-1)]
        ups = [zero] + [bracket(u, w) for w in coeffs]
        coeffs = [add(a, b) for a, b in
                  zip([bracket(v, w) for w in coeffs] + [zero], ups)]
    rhs = add(ppower(u), ppower(v))
    for i in range(1, F.p):
        inv = F.inv(F.scalar_from_int(i))
        rhs = add(rhs, [F.mul(inv, a) for a in coeffs[i - 1]])
    assert ppower(add(u, v)) == rhs
    cp = F.pow(c, F.p)
    assert ppower([F.mul(c, a) for a in u]) == [F.mul(cp, a)
                                               for a in ppower(u)]


def test_ppower_reads_no_delta_of_monomials():
    # the p-map multiplies points through delta of the generators only:
    # the monomial coproduct memo is never read
    H = SL2_kerF(1, F3)
    basis, _, ppower = lie_algebra(H)
    expected = [_convolution_ppower(H, u) for u in basis]

    def refuse(m):
        raise AssertionError("ppower read delta of a monomial")

    H.delta_mono = refuse
    assert [ppower(u) for u in basis] == expected


def test_delta_mono_keeps_the_legs_in_order():
    # delta(T) = T ox 1 + 1 ox T + S ox T^2 in D2 is not cocommutative, so
    # swapped legs would show
    H = d2()
    A = H.carrier
    one, S, T, T2 = (next(iter(f.d)) for f in
                     (A.one(), A.var("S"), A.var("T"), A.var("T") ** 2))
    join = H.t2().join_mono
    assert H.delta_mono(T) == {join((T, one)): 1, join((one, T)): 1,
                               join((S, T2)): 1}


# -- caches and cycles ------------------------------------------------------

def _exercise(H):
    """Verify H and run on it what builds memos, tensors and more groups."""
    A, F = H.carrier, H.field
    assert hopf_verify(H)["ok"]
    assert morphism_check(frobenius(H))["ok"]
    # the search is left suspended after its first map
    shape = {nm: [A.var(nm) - A.scalar(H.counit[nm])] for nm in A.vars}
    assert find_isomorphism(H, H, shape) is not None
    assert enumerate_morphisms(H, alpha(1, F))
    K, _ = subgroup_from_elements(H, [("Y" + nm, A.var(nm)) for nm in A.vars])
    assert K.dim == H.dim
    # eliminating the second generator leaves aliases on the carrier
    K = closed_subgroup(H, [A.var(A.vars[1])])
    assert K.carrier.aliases and K.dim < H.dim


def test_built_groups_form_no_reference_cycles():
    # with the collector off, reference counting alone must free every
    # carrier, tensor square and memo once the caller drops them
    gc.collect()
    gc.disable()
    try:
        dead = []
        for H in (SL2_kerF(1, F3), pullback(1, 1, 2, F2)):
            _exercise(H)
            dead += [weakref.ref(H.carrier), weakref.ref(H.t2())]
        del H
        c = standard_coaction(1, 1, True, F2)
        extends_to_p1(c)
        dead += [weakref.ref(c.group.carrier), weakref.ref(c.group.t2())]
        del c
        assert [r() for r in dead] == [None] * len(dead)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_kept_element_keeps_the_tensor_square_shared():
    H = SL2_kerF(1, F3)
    A, kept = H.carrier, H.delta["u12"]
    caller = A.tensor(A)
    given = {nm: Poly(caller, dict(v.d)) for nm, v in H.delta.items()}
    counit, anti = H.counit, H.antipode
    del H
    K = HopfAlgebra(A, given, counit, anti)
    assert K.delta["u12"] == kept and K.t2() is kept.alg


@pytest.mark.parametrize("build", [lambda: SL2_kerF(1), lambda: alpha(3)],
                         ids=["SL2_kerF(1)", "alpha(3)"])
def test_every_cache_is_declared(build):
    # caches filled on first use are attributes set at construction
    H = build()
    A, t2 = H.carrier, H.t2()
    before = set(vars(A)), set(vars(t2))
    assert hopf_verify(H)["ok"] and enumerate_subgroups(H)
    x = A.var(A.vars[0])
    assert A.from_vector(A.to_vector(x)) == x
    assert t2.from_vector(t2.to_vector(H.delta_map(x))) == H.delta_map(x)
    H.aug_subspace()
    basis, bracket, ppower = lie_algebra(H)
    ppower(basis[0]), bracket(basis[0], basis[-1])
    assert (set(vars(A)), set(vars(t2))) == before


def test_subalgebra_generated_on_a_quotient_carrier():
    # the span lies in to_vector's coordinates over the 27 basis
    # monomials, not in the 81-wide shell
    A = SL2_kerF(1, F3).carrier
    u11, u12, u21 = (A.var(nm) for nm in ("u11", "u12", "u21"))
    for elems, dim in (([u11], 3), ([u11 * u12, u21 ** 2], 6),
                       ([u12, u21], 9)):
        S = subalgebra_generated(A, elems)
        assert S.dim == dim and S.n == A.dim == 27
        assert S.contains(A.to_vector(elems[-1] ** 2))
        assert not S.contains(A.to_vector(A.var("u22") - A.one()))
