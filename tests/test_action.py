import pytest
from hypothesis import given, settings, strategies as st

from gsl import BadParams, Field, Morphism
from gsl.action import (Coaction, MobiusMatrix, action_kernel,
                        chart2_closed_form, chart2_matches_closed_form,
                        coaction_from_matrix, coaction_verify, extends_to_p1,
                        is_faithful, laurent_invert, mobius_matrix,
                        pgl2_morphism, restrict_coaction,
                        standard_coaction)
from gsl.errors import NotFractionalLinear, NotInvertible
from gsl.hopf import closed_subgroup, morphism_check
from gsl.zoo import D, alpha

F2 = Field(2)
F4 = Field(2, 2)


# -- the axioms ------------------------------------------------------------

def test_trivial_coaction_verifies():
    a2 = alpha(2)
    c = Coaction(a2, {1: a2.carrier.one()})
    assert coaction_verify(c)["ok"]
    assert action_kernel(c).dim == 0
    assert not is_faithful(c)


def _unit_twist():
    """X -> (1 + T) X on alpha(1): counital, not coassociative."""
    a1 = alpha(1)
    A = a1.carrier
    return Coaction(a1, {1: A.one() + A.var("T")})


def test_unit_twist_fails_coassoc_only():
    rep = coaction_verify(_unit_twist())
    assert not rep["ok"]
    assert {f.axiom for f in rep["failures"]} == {"coassoc"}


def test_counit_failures_reported_degreewise():
    a1 = alpha(1)
    A = a1.carrier
    rep = coaction_verify(Coaction(a1, {1: A.one(), 0: A.one()}))
    assert ("counit", 0) in [(f.axiom, f.where) for f in rep["failures"]]
    # a dropped degree-one coefficient is a counit failure at 1
    rep = coaction_verify(Coaction(a1, {2: A.var("T")}))
    assert ("counit", 1) in [(f.axiom, f.where) for f in rep["failures"]]


def _failures(rep):
    return [(f.axiom, f.where, str(f.residual))
            for f in rep["failures"]]


def test_failure_lists_pinned():
    a1 = alpha(1)
    A = a1.carrier
    T = A.var("T")
    assert _failures(coaction_verify(Coaction(a1, {1: A.one() + T}))) == [
        ("coassoc", 1, "T*T'")]
    assert _failures(coaction_verify(Coaction(a1, {1: A.one(), 0: A.one()}))) == [
        ("counit", 0, "1"), ("coassoc", 0, "1")]
    assert _failures(coaction_verify(Coaction(a1, {2: T}))) == [
        ("counit", 1, "1"), ("coassoc", 2, "T' + T")]
    # negative degrees: the powers rho^-k of a Laurent unit
    assert _failures(coaction_verify(Coaction(a1, {1: A.one(), -1: T}))) == [
        ("coassoc", -3, "T*T'")]
    # a series that is no Laurent unit is its own residual
    assert _failures(coaction_verify(Coaction(a1, {1: A.one(), -1: A.one()}))) == [
        ("counit", -1, "1"), ("well_defined", None, "X'^-1 + X'")]
    c = standard_coaction(1, 0, True)
    inv = Coaction(c.group, laurent_invert(c.group, c.rho))
    assert _failures(coaction_verify(inv)) == [
        ("counit", -1, "1"), ("counit", 1, "1"), ("coassoc", -2, "T' + T"),
        ("coassoc", -1, "1"), ("coassoc", 0, "T + S"), ("coassoc", 1, "1"),
        ("coassoc", 2, "T' + S")]


def test_counit_residuals_are_scalar_codes():
    a1 = alpha(1)
    rep = coaction_verify(Coaction(a1, {1: a1.carrier.one(), 0: a1.carrier.one()}))
    counit = [f.residual for f in rep["failures"] if f.axiom == "counit"]
    assert [(str(r), r.constant_term(), len(r.d)) for r in counit] == [("1", 1, 1)]
    c = standard_coaction(2, 1, False, F4)
    rep = coaction_verify(Coaction(c.group, laurent_invert(c.group, c.rho)))
    coassoc = [f for f in rep["failures"] if f.axiom == "coassoc"]
    assert [f.where for f in coassoc] == [-4, -3, -2, -1, 0, 1, 2, 3, 4]
    assert all(f.residual.alg is c.group.t2() for f in coassoc)
    assert str(coassoc[-1].residual) == "T'^3"
    assert str(coassoc[3].residual) == "1 + U' + U + U*U'"


def test_coaction_normalizes_zero_coefficients():
    a1 = alpha(1)
    A = a1.carrier
    c = Coaction(a1, {1: A.one(), 0: A.zero(), 5: A.zero()})
    assert sorted(c.rho) == [1]
    assert not c.coefficient(3).d


# -- Laurent arithmetic ------------------------------------------------------

def test_laurent_invert_pinned():
    a1 = alpha(1)
    A = a1.carrier
    u = {1: A.one(), 0: A.var("T")}
    uinv = laurent_invert(a1, u)
    assert sorted(uinv) == [-2, -1]
    assert uinv[-1] == A.one() and uinv[-2] == A.var("T")
    assert Coaction(a1, u).series * Coaction(a1, uinv).series == 1


def test_laurent_invert_guards():
    a1 = alpha(1)
    A = a1.carrier
    with pytest.raises(NotInvertible):
        laurent_invert(a1, {1: A.var("T")})
    with pytest.raises(NotInvertible):
        laurent_invert(a1, {1: A.one(), 0: A.one()})


def test_matrix_with_non_unit_denominator_is_not_invertible():
    a1 = alpha(1)
    A = a1.carrier
    one, zero, T = A.one(), A.zero(), A.var("T")
    with pytest.raises(NotInvertible):
        coaction_from_matrix(a1, ((one, zero), (T, zero)))
    with pytest.raises(NotInvertible):
        coaction_from_matrix(a1, ((one, zero), (one, one)))


def _element(A, picks):
    """Sum of the carrier's basis monomials at the picked positions."""
    monos = A.basis_monomials()
    return sum((A.monomial(monos[k % len(monos)]) for k in set(picks)),
               A.zero())


@given(st.sampled_from(["alpha(2)", "D(1)"]),
       st.dictionaries(st.integers(min_value=-3, max_value=3),
                       st.lists(st.integers(min_value=0, max_value=15),
                                max_size=3),
                       max_size=4),
       st.integers(min_value=-2, max_value=2),
       st.lists(st.integers(min_value=1, max_value=15), max_size=3))
@settings(max_examples=60, deadline=None)
def test_degree_dict_and_inverse_round_trips(gid, codes, lead, tail):
    H = alpha(2) if gid == "alpha(2)" else D(1)
    A = H.carrier
    # every coefficient nilpotent but the one at ``lead``, which is 1 + n
    rho = {i: _element(A, [k for k in picks if k % A.dim])
           for i, picks in codes.items()}
    rho[lead] = A.one() + _element(A, [k for k in tail if k % A.dim])
    c = Coaction(H, rho)
    assert Coaction(H, c.rho).rho == c.rho
    assert laurent_invert(H, laurent_invert(H, c.rho)) == c.rho


COEFF_CODES = st.sampled_from(["0", "T", "TT", "T+TT"])


def _decode(A, code):
    T = A.var("T")
    return {"0": A.zero(), "T": T, "TT": T * T, "T+TT": T + T * T}[code]


@given(st.dictionaries(st.integers(min_value=-2, max_value=3), COEFF_CODES,
                       max_size=4),
       COEFF_CODES)
@settings(max_examples=60, deadline=None)
def test_laurent_inverse_round_trip(codes, unit_tail):
    a2 = alpha(2)
    A = a2.carrier
    r = {i: _decode(A, code) for i, code in codes.items()}
    r[0] = A.one() + _decode(A, unit_tail)
    r = Coaction(a2, r).rho
    inv = laurent_invert(a2, r)
    assert Coaction(a2, r).series * Coaction(a2, inv).series == 1


# -- the standard family -----------------------------------------------------

def test_standard_grid_faithful_and_extends():
    for n in (1, 2, 3):
        for l in (0, 1, 2):
            for with_S in (True, False):
                c = standard_coaction(n, l, with_S)
                want = 2 ** (n + 1 + l) if with_S else 2 ** (n + l)
                assert c.group.dim == want
                assert is_faithful(c)
                ext = extends_to_p1(c)
                assert ext["extends"] and ext["witness"] is None
                assert chart2_matches_closed_form(c)


def test_standard_grid_over_F4():
    for l in (0, 1):
        c = standard_coaction(2, l, True, F4)
        assert is_faithful(c) and extends_to_p1(c)["extends"]
        assert chart2_matches_closed_form(c)


def test_standard_n0_torus_on_S():
    c = standard_coaction(0, 1, True)
    assert c.group.dim == 4
    assert is_faithful(c)
    assert extends_to_p1(c)["extends"]


def test_standard_guards():
    with pytest.raises(BadParams):
        standard_coaction(1, 0, True, Field(3))
    with pytest.raises(BadParams):
        standard_coaction(0, 1, False)


def test_chart2_pinned_small_case():
    # inverting X + T + SX^2 with T^2 = 0 gives S + 1/X + T/X^2
    c = standard_coaction(1, 0, True)
    A = c.group.carrier
    ch = extends_to_p1(c)["chart2"]
    assert sorted(ch.rho) == [0, 1, 2]
    assert ch.coefficient(0) == A.var("S")
    assert ch.coefficient(1) == A.one()
    assert ch.coefficient(2) == A.var("T")
    assert coaction_verify(ch)["ok"]


def test_nonextending_coaction_with_witness():
    a1 = alpha(1)
    A = a1.carrier
    c = Coaction(a1, {1: A.one(), 4: A.var("T")})
    assert coaction_verify(c)["ok"]
    ext = extends_to_p1(c)
    assert not ext["extends"] and ext["chart2"] is None
    assert ext["witness"]["degree"] == 2
    assert ext["witness"]["coefficient"] == A.var("T")
    rinv = laurent_invert(a1, c.rho)
    assert sorted(rinv) == [-1, 2] and rinv[2] == A.var("T")


# -- restriction --------------------------------------------------------------

def test_restrict_to_central_line():
    c = standard_coaction(2, 1, True)
    G = c.group
    A = G.carrier
    K = closed_subgroup(G, [A.var("S"), A.var("T") ** 2, A.var("U")])
    assert K.carrier.dim == 2
    q = Morphism(G, K, {nm: K.carrier.var(nm) for nm in A.vars})
    assert morphism_check(q)["ok"]
    cr = restrict_coaction(c, q)
    assert coaction_verify(cr)["ok"]
    assert sorted(cr.rho) == [0, 1]
    assert cr.coefficient(0) == K.carrier.var("T")
    assert is_faithful(cr)
    # anything killed by the big action is killed after restricting
    big, small = action_kernel(c), action_kernel(cr)
    assert all(small.contains(q.map(b)) for b in big.basis_polys())


def test_restrict_requires_matching_carrier():
    c = standard_coaction(1, 0, True)
    a1 = alpha(1)
    q = Morphism(a1, a1, {"T": a1.carrier.var("T")})
    with pytest.raises(BadParams):
        restrict_coaction(c, q)


def test_faithfulness_survives_presentation_change():
    for n in (1, 2, 3):
        c = standard_coaction(n, 0, True)
        DB = D(n, "B")
        B = DB.carrier
        g = Morphism(c.group, DB,
                     {"S": B.var("S"),
                      "T": B.var("T") + B.var("S") * B.var("T") ** 2})
        assert morphism_check(g)["ok"] and g.is_bijective()
        cB = restrict_coaction(c, g)
        assert coaction_verify(cB)["ok"]
        assert is_faithful(cB) == is_faithful(c)


# -- fractional-linear form ----------------------------------------------------

def test_mobius_entries_pinned():
    c = standard_coaction(1, 1, True)
    A = c.group.carrier
    S, T, W = A.var("S"), A.var("T"), A.one() + A.var("U")
    M = mobius_matrix(c)
    (a, b), (cc, d) = M.entries
    assert a == W + T * W * S
    assert b == T
    assert cc == W * S
    assert d == A.one()
    assert M.det() == W


def lands_at_height(M, n):
    """The failing axioms of the matrix as a map from PGL2_kerF(n)."""
    return sorted({f.axiom for f in
                   morphism_check(pgl2_morphism(M, n))["failures"]})


def test_mobius_lands_in_frobenius_kernel():
    c = standard_coaction(1, 1, True)
    A = c.group.carrier
    M = mobius_matrix(c)
    f = pgl2_morphism(M, 1)
    assert f.source.name == "PGL2_kerF(1)" and f.target is c.group
    assert morphism_check(f)["ok"]
    # the entrywise square is the identity matrix
    (a, b), (cc, d) = M.entries
    assert a ** 2 == A.one() and not (b ** 2).d and not (cc ** 2).d
    assert f.images["a"] == a - A.one()
    assert c.group.dim == 8 and is_faithful(c)


def test_pgl2_morphism_divides_by_the_lower_right_entry():
    c = standard_coaction(1, 1, True)
    A = c.group.carrier
    W = A.one() + A.var("U")
    (a, b), (cc, d) = mobius_matrix(c).entries
    scaled = MobiusMatrix(c.group, ((a * W, b * W), (cc * W, W)))
    assert (pgl2_morphism(scaled, 1).images
            == pgl2_morphism(mobius_matrix(c), 1).images)


def test_mobius_round_trip():
    for args in ((1, 1, True), (2, 1, True), (2, 2, False), (3, 0, True)):
        c = standard_coaction(*args)
        M = mobius_matrix(c)
        back = coaction_from_matrix(c.group, M.entries)
        assert back.rho == c.rho


def test_affine_matrix_misses_frobenius_kernel():
    # no squaring term: the matrix is triangular and T^2 survives
    c = standard_coaction(2, 1, False)
    A = c.group.carrier
    M = mobius_matrix(c)
    (a, b), (cc, d) = M.entries
    assert a == A.one() + A.var("U") and b == A.var("T")
    assert not cc.d and d == A.one()
    # a homomorphism, of height 2: T^2 survives at height 1
    assert lands_at_height(M, 1) == ["well_defined"]
    assert lands_at_height(M, 2) == []


def test_deeper_unipotent_misses_frobenius_kernel():
    M = mobius_matrix(standard_coaction(2, 1, True))
    assert lands_at_height(M, 1) == ["well_defined"]
    assert lands_at_height(M, 2) == []


def test_identity_matrix_passes_both_checks():
    a1 = alpha(1)
    c = Coaction(a1, {1: a1.carrier.one()})
    M = mobius_matrix(c)
    assert lands_at_height(M, 1) == []


def test_not_fractional_linear_cases():
    a1 = alpha(1)
    A = a1.carrier
    with pytest.raises(NotFractionalLinear):
        mobius_matrix(Coaction(a1, {1: A.one(), 4: A.var("T")}))
    with pytest.raises(NotFractionalLinear):
        mobius_matrix(Coaction(a1, {1: A.var("T")}))
    with pytest.raises(NotFractionalLinear):
        mobius_matrix(Coaction(a1, {1: A.one(), 0: A.one()}))
    with pytest.raises(NotFractionalLinear):
        mobius_matrix(Coaction(a1, {1: A.one(), -1: A.var("T")}))
