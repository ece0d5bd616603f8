import ast
import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gsl

from gsl import BadParams, Field, NonUnit, NotHomogeneous, SizeGuard
from gsl.action import Coaction
from gsl.talg import (DIM_LIMIT, Algebra, Poly, QuotientAlgebra,
                      TensorAlgebra, apply_map, _divides, _groebner,
                      _mono_images, _power, eliminate_linear,
                      invert_unit, map_leg, multiply_legs, quotient_algebra,
                      subalgebra_generated, weight_decomposition)
from gsl.linalg import Subspace, subspace_from
from gsl.zoo import zoo_parse

F2 = Field(2)
F3 = Field(3)
F4 = Field(2, 2)
F5 = Field(5)


def ring_ST(F=F2):
    return Algebra(F, ["S", "T"], [2, 4])


def random_poly(draw, A, max_terms=4):
    d = {}
    for _ in range(draw(st.integers(0, max_terms))):
        m = tuple(draw(st.integers(0, o - 1)) for o in A.orders)
        c = draw(st.integers(1, A.field.q - 1))
        d[m] = c
    return A.poly(d)


# -- free arithmetic ---------------------------------------------------------

def test_truncation():
    A = ring_ST()
    S, T = A.gens()
    assert T ** 4 == 0
    assert T ** 3 * T == 0
    assert S * S == 0
    assert (S * T ** 3) * T == 0
    assert bool(T ** 3)


def test_char2_squaring():
    A = ring_ST()
    S, T = A.gens()
    f = 1 + T + S * T
    assert f * f == 1 + T ** 2


def test_scalar_coefficients():
    A = Algebra(F4, ["T"], [4])
    T = A.var("T")
    g = A.scalar(F4.gen)
    assert (g * T) * (g * T) == A.scalar(F4.mul(F4.gen, F4.gen)) * T ** 2
    with pytest.raises(BadParams):
        A.scalar(7)
    assert A.scalar_int(5) == A.one()  # 5 mod 2


def test_pow_matches_repeated_multiplication():
    A = Algebra(F3, ["T"], [9])
    T = A.var("T")
    f = 1 + T + 2 * T ** 2
    acc = A.one()
    for e in range(9):
        assert f ** e == acc
        acc = acc * f


@settings(max_examples=50)
@given(data=st.data())
def test_pow_shortcut_property(data):
    A = Algebra(F4, ["S", "T"], [2, 4])
    f = random_poly(data.draw, A)
    e = data.draw(st.integers(0, 7))
    naive = A.one()
    for _ in range(e):
        naive = naive * f
    assert f ** e == naive


def test_unit_kind_exponent_rules():
    A = Algebra(F2, ["W"], [4], ["unit"])
    W = A.var("W")
    assert W ** 4 == A.one()
    assert W ** 5 == W
    assert W ** -1 == W ** 3
    # 1 - W is nilpotent when the order is a power of the characteristic
    assert (1 + W) ** 4 == 0
    with pytest.raises(BadParams):
        Algebra(F2, ["W"], [3], ["unit"])


def test_laurent_exponents():
    A = Algebra(F2, ["X"], [0], ["laurent"])
    X = A.var("X")
    assert X ** -2 * X ** 5 == X ** 3
    assert A.dim is None
    with pytest.raises(BadParams):
        A.to_vector(X)


def test_coordinates_refuse_foreign_elements_and_wrong_lengths():
    A = ring_ST()
    S, T = A.gens()
    Q = quotient_algebra(A, [T * T - S], eliminate=False)
    assert Q.dim == 4
    with pytest.raises(BadParams, match="another algebra"):
        Q.to_vector(T ** 3)
    for n in (9, 3):
        with pytest.raises(BadParams, match="expected 4 coordinates"):
            Q.from_vector([1] * n)
    L = Algebra(F2, ["X"], [0], ["laurent"])
    with pytest.raises(BadParams, match="laurent"):
        L.to_vector(L.var("X"))
    with pytest.raises(BadParams, match="laurent"):
        L.from_vector([1])


def _coordinate_algebras(F):
    A = Algebra(F, ["S", "T", "W"], [2, 4, F.p], ["nil", "nil", "unit"])
    S, T, W = A.gens()
    Q = quotient_algebra(A, [T * T - S * W], eliminate=False)
    return A, Q, Q.tensor(A), Q.tensor(Q)


@settings(max_examples=80, deadline=None)
@given(F=st.sampled_from([F2, F3, F5, F4, Field(3, 2)]), k=st.integers(0, 3),
       data=st.data())
def test_coordinates_round_trip(F, k, data):
    # free, quotient and tensor algebras; a vector is read over the
    # reduced basis, so every vector is the coordinates of one element
    A = _coordinate_algebras(F)[k]
    f = data.draw(st.builds(lambda d: A.poly(d), st.dictionaries(
        st.tuples(*(st.integers(0, d - 1) for d in A.orders)),
        st.integers(1, F.q - 1), max_size=5)))
    assert A.from_vector(A.to_vector(f)) == f
    vec = data.draw(st.lists(st.integers(0, F.q - 1), min_size=A.dim,
                             max_size=A.dim))
    assert A.to_vector(A.from_vector(vec)) == vec


def test_size_guard():
    with pytest.raises(SizeGuard):
        Algebra(F2, ["a", "b", "c"], [256, 256, 256])


def test_mixed_algebra_arithmetic_errors():
    A, B = ring_ST(), ring_ST()
    with pytest.raises(BadParams):
        A.var("T") + B.var("T")


# -- ideals and quotients -----------------------------------------------------

def ideal_dim(A, gens):
    """Dimension of the ideal of a free algebra that gens generate."""
    return A.ambient_dim() - quotient_algebra(A, gens, eliminate=False).dim


def test_ideal_span_dimensions():
    # in GF(2)[S,T]/(S^2, T^4): (S) = S*{1,T,T^2,T^3}, (T) = {T,T^2,T^3}x{1,S}
    A = ring_ST()
    S, T = A.gens()
    assert ideal_dim(A, [S]) == 4
    assert ideal_dim(A, [T]) == 6
    assert ideal_dim(A, [S, T]) == 7  # the augmentation ideal
    assert ideal_dim(A, [A.one()]) == 8


def test_quotient_without_elimination():
    A = ring_ST()
    S, T = A.gens()
    Q = quotient_algebra(A, [T * T - S], eliminate=False)
    assert Q.dim == 4
    t = Q.var("T")
    s = Q.var("S")
    assert t * t == s
    assert t ** 4 == 0
    assert s * s == 0


def test_quotient_with_elimination_becomes_free():
    A = ring_ST()
    S, T = A.gens()
    Q = quotient_algebra(A, [S - T * T])
    assert Q.vars == ("T",)
    assert Q.groebner == [] and Q.ambient_dim() == Q.dim
    assert Q.dim == 4
    assert Q.var("S") == Q.var("T") ** 2  # alias for the eliminated variable


def test_elimination_with_unit_coefficient_and_chained_aliases():
    C = Algebra(F2, ["u", "v", "w"], [2, 2, 2])
    u, v, w = C.gens()
    amb, gens, ali = eliminate_linear(C, [v * (1 + u) + u, w + v * u])
    assert amb.vars == ("v",)
    assert gens == []
    assert ali["u"] == amb.var("v")
    assert ali["w"] == amb.zero()


def test_elimination_truncation_residual():
    # x = y^2 with x^2 = 0 forces the residual y^4 into the ideal
    C = Algebra(F2, ["x", "y"], [2, 8])
    x, y = C.gens()
    Q = quotient_algebra(C, [x - y * y])
    assert Q.vars == ("y",)
    yy = Q.var("y")
    assert yy ** 4 == 0
    assert yy ** 3 != 0
    assert Q.dim == 4


def test_ideal_closure_needs_a_free_algebra():
    # in Q = A/(T^2 - S) a coordinate shift is not the product, so closing
    # (T^3) there used to give dim 3 with T*T*T = T^3 != 0 and T*T != S
    A = ring_ST()
    S, T = A.gens()
    Q = quotient_algebra(A, [T * T - S], eliminate=False)
    with pytest.raises(BadParams, match="free algebra"):
        quotient_algebra(Q, [Q.var("T") ** 3], eliminate=False)
    AQ = A.tensor(Q)
    with pytest.raises(BadParams, match="free algebra"):
        quotient_algebra(AQ, [AQ.var("T")], eliminate=False)
    AA = A.tensor(A)
    assert ideal_dim(AA, [AA.var("T"), AA.var("S'")]) == 64 - 4 * 2


def _reference_span(A, gens):
    """The closure through Poly products: f * x for each queued f and x."""
    pack = A.to_vector
    S = Subspace(A.field, A.ambient_dim())
    queue = []
    for g in gens:
        if g.d and S.insert(pack(g)):
            queue.append(g)
    while queue:
        f = queue.pop()
        for x in A.gens():
            w = f * x
            if w.d and S.insert(pack(w)):
                queue.append(w)
    return S


def tuple_mul(A, m1, m2):
    """The product of two exponent tuples under A's exponent rules, or
    None when a nil power dies: the rule a product of keys must follow."""
    out = []
    for e1, e2, d, k in zip(m1, m2, A.orders, A.kinds):
        e = e1 + e2
        if k == "nil":
            if e >= d:
                return None
        elif k == "unit":
            e %= d
        out.append(e)
    return tuple(out)


def shell_tuples(A):
    """The exponent tuples of a finite free A in index order, the last
    variable most significant (its coordinate order)."""
    return [tuple(reversed(m)) for m in
            itertools.product(*[range(d) for d in reversed(A.orders)])]


def key(A, exps):
    """The key of an exponent tuple in the free algebra A."""
    (m,) = A.monomial(exps).d
    return m


def ideal_span(A, gens):
    """The shell sweep, as an oracle: the largest-pivot RREF of the ideal
    of a free algebra, as {pivot index: tail}, row = pivot + tail.

    Its pivots are the shell multiples of the leading monomials of a
    Groebner basis.  The rows are written in one sweep up the shell: a
    leading monomial's residue is minus its tail; any other pivot m is
    x_v * m' with m' a pivot, and res(m) is x_v * res(m') with each
    pivot term, all below m, replaced by its residue.
    """
    F, exps = A.field, A.exponents
    tuples = shell_tuples(A)
    index = {m: i for i, m in enumerate(tuples)}.__getitem__
    mono = tuples.__getitem__
    leads = {}
    for g in _groebner(A, gens):
        t = max(g.d, key=lambda m: index(exps(m)))
        leads[exps(t)] = {index(exps(m)): c for m, c in g.d.items() if m != t}

    def divides(t, m):
        return all(a <= b for a, b in zip(t, m))

    def is_pivot(m):
        return any(divides(t, m) for t in leads)

    rows = {}
    for i in range(A.ambient_dim()):
        m = mono(i)
        if not is_pivot(m):
            continue
        if m in leads:
            r = dict(leads[m])
        else:
            below = [(v, m[:v] + (e - 1,) + m[v + 1:])
                     for v, e in enumerate(m) if e]
            v, prev = next((v, b) for v, b in below if is_pivot(b))
            x = tuple(int(k == v) for k in range(len(m)))
            r = {}
            for j, c in rows[index(prev)].items():
                jx = tuple_mul(A, mono(j), x)
                if jx is not None:
                    r[index(jx)] = c
        for j in [j for j in r if is_pivot(mono(j))]:
            c = F.neg(r.pop(j))
            for k, ck in rows[j].items():
                s = F.add(r.get(k, 0), F.mul(c, ck))
                if s:
                    r[k] = s
                else:
                    del r[k]
        rows[i] = r
    return rows


def _sweep_subspace(A, rows):
    n = A.ambient_dim()
    vecs = []
    for i, tail in rows.items():
        vec = [0] * n
        vec[i] = 1
        for j, c in tail.items():
            vec[j] = c
        vecs.append(vec)
    return subspace_from(A.field, n, vecs)


def assert_quotient_matches_sweep(A, gens):
    """The staircase and the residue of every shell monomial of the
    quotient equal those the sweep writes."""
    rows = ideal_span(A, gens)
    Q = quotient_algebra(A, gens, eliminate=False)
    F, keys = A.field, [key(A, m) for m in shell_tuples(A)]
    mono = keys.__getitem__
    assert Q.basis_monomials() == [mono(i) for i in range(A.ambient_dim())
                                   if i not in rows]
    assert Q.dim == A.ambient_dim() - len(rows)
    for i in range(A.ambient_dim()):
        want = None if i not in rows else {
            mono(j): F.neg(c) for j, c in rows[i].items()}
        assert Q.reduce_term(mono(i)) == want
    return rows, Q


def free_algebra(draw, F, names, shell_cap=32):
    """A free algebra on random nil and unit variables (unit orders p^k)."""
    orders, kinds, size = [], [], 1
    for _ in names:
        kind = draw(st.sampled_from(["nil", "unit"]))
        if kind == "unit":
            d = F.p ** draw(st.integers(1, 2))
        else:
            d = draw(st.integers(2, 4))
        if size * d > shell_cap:
            break
        orders.append(d)
        kinds.append(kind)
        size *= d
    return Algebra(F, names[:len(orders)], orders, kinds)


@settings(max_examples=50, deadline=None)
@given(data=st.data(),
       F=st.sampled_from([F2, F3, F4, Field(3, 2), Field(5, 4)]))
def test_ideal_span_matches_poly_product_closure(data, F):
    draw = data.draw
    A = free_algebra(draw, F, ["x", "y", "z"])
    if draw(st.booleans()):
        A = A.tensor(free_algebra(draw, F, ["w"], shell_cap=5))
    gens = [random_poly(draw, A, max_terms=3)
            for _ in range(draw(st.integers(0, 3)))]
    rows, _ = assert_quotient_matches_sweep(A, gens)
    got, want = _sweep_subspace(A, rows), _reference_span(A, gens)
    assert got.pivots() == want.pivots()
    assert got.basis() == want.basis()


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       F=st.sampled_from([F2, F3, Field(5), F4, Field(3, 2), Field(5, 2)]))
def test_ideal_span_matches_closure_on_larger_shells(data, F):
    # shells up to 256 on three or four nil and unit variables, and
    # tensors of free algebras: enough room for S-pairs between
    # generators, for unit exponents to wrap and for long division chains
    draw = data.draw
    tensor = draw(st.booleans())
    A = free_algebra(draw, F, ["x", "y", "z", "t"],
                     shell_cap=64 if tensor else 256)
    if tensor:
        A = A.tensor(free_algebra(draw, F, ["u", "w"], shell_cap=4))
    gens = [random_poly(draw, A, max_terms=4)
            for _ in range(draw(st.integers(1, 4)))]
    rows, _ = assert_quotient_matches_sweep(A, gens)
    got, want = _sweep_subspace(A, rows), _reference_span(A, gens)
    assert got.pivots() == want.pivots()
    assert got.basis() == want.basis()


@pytest.mark.parametrize("F", [F2, F3, F4], ids=lambda F: F.name)
def test_ideal_span_degenerate_inputs(F):
    A = Algebra(F, ["x", "y", "z"], [4, F.p, 3], ["nil", "unit", "nil"])
    x, y, z = A.gens()
    assert quotient_algebra(A, [], eliminate=False).dim == A.dim
    assert quotient_algebra(A, [A.zero()], eliminate=False).dim == A.dim
    # a unit generates the whole shell: 1 + x, and y with y^p = 1
    for unit in (A.one() + x, y):
        Q = quotient_algebra(A, [unit], eliminate=False)
        assert Q.dim == 0 and Q.basis_monomials() == []
        assert Q.groebner == [A.one()]
        assert all(Q.reduce_term(m) == {} for m in A.monomials())
    # a monomial generates its multiples, each residue zero
    Q = quotient_algebra(A, [x * z ** 2], eliminate=False)
    e = A.exponents
    assert Q.basis_monomials() == [m for m in A.monomials()
                                   if not (e(m)[0] >= 1 and e(m)[2] == 2)]
    assert all(Q.reduce_term(m) == {} for m in A.monomials()
               if e(m)[0] >= 1 and e(m)[2] == 2)
    # no variables at all: the shell is the constants
    A0 = Algebra(F, [], [])
    assert [A0.exponents(m) for m in quotient_algebra(
        A0, [], eliminate=False).basis_monomials()] == [()]
    Q0 = quotient_algebra(A0, [A0.scalar(F.q - 1)], eliminate=False)
    assert Q0.dim == 0 and Q0.reduce_term(key(A0, ())) == {}


def test_ideal_span_makes_no_poly_products(monkeypatch):
    calls = []
    mul_dicts = Algebra.mul_dicts

    def counted(self, d1, d2):
        calls.append(self)
        return mul_dicts(self, d1, d2)

    for F in (F2, F3):
        A = Algebra(F, ["u11", "u12", "u21", "u22"], [4] * 4)
        u11, u12, u21, u22 = A.gens()
        det = u11 + u22 + u11 * u22 - u12 * u21
        want = _reference_span(A, [det])
        monkeypatch.setattr(Algebra, "mul_dicts", counted)
        Q = quotient_algebra(A, [det], eliminate=False)
        assert Q.basis_monomials() == [A.basis_monomials()[j]
                                       for j in want.complement_indices()]
        monkeypatch.setattr(Algebra, "mul_dicts", mul_dicts)
    assert calls == []


def test_normal_forms_of_a_long_division_chain():
    # y^2 = y*x moves y^1023 down one step at a time to x^1022*y; the
    # chain is a thousand divisions long, each memoised, with no recursion
    A = Algebra(F2, ["x", "y"], [1024, 1024])
    x, y = A.gens()
    Q = quotient_algebra(A, [y * y + y * x], eliminate=False)
    assert Q.reduce_term(key(A, (0, 1023))) == {key(A, (1022, 1)): 1}
    assert Q.reduce_term(key(A, (1022, 1))) is None
    assert Q.reduce_term(key(A, (1, 1023))) == {}  # x^1023 * y: x^1024 = 0
    assert Q.dim == 1024 + 1023


def test_quotient_basis_guard_counts_the_staircase():
    # the shell of 2^24 is never listed; the staircase of 2^18 is
    A = Algebra(F2, ["a", "b", "c", "d"], [64] * 4, dim_guard=False)
    a, b, c, d = A.gens()
    Q = quotient_algebra(A, [d - a * b * c - a], eliminate=False)
    assert Q.dim == 64 ** 3
    assert len(Q.basis_monomials()) == Q.dim
    with pytest.raises(SizeGuard) as exc:
        quotient_algebra(A, [d ** 8], eliminate=False)  # 2^21 monomials
    assert exc.value.what == "quotient basis"


def test_unit_ideal_gives_zero_ring():
    A = ring_ST()
    Q = quotient_algebra(A, [A.one() + A.var("T")])  # 1 + T is a unit
    assert Q.dim == 0


@pytest.mark.parametrize("eliminate", [False, True])
def test_zero_ring_unit_and_scalars_are_zero(eliminate):
    # GF(2)[T]/(T^4, T + 1): with elimination T = 1 leaves no variables
    A = Algebra(F2, ["T"], [4])
    Q = quotient_algebra(A, [A.var("T") + 1], eliminate=eliminate)
    assert Q.vars == (() if eliminate else ("T",))
    assert Q.dim == 0
    assert Q.one() == Q.zero() and Q.scalar(1) == Q.zero() and Q.one() == 1
    assert Q.to_vector(Q.one()) == [] and Q.from_vector([]) == Q.one()
    assert Q.var("T") == Q.zero()
    with pytest.raises(BadParams):
        Q.scalar(2)


def test_unknown_variable_names_are_refused():
    A = ring_ST()
    with pytest.raises(BadParams, match="'Z'"):
        A.monomial({"Z": 1})


# -- tensor products -----------------------------------------------------------

def test_tensor_naming_and_dim():
    A = ring_ST()
    TT = A.tensor(A)
    assert TT.vars == ("S", "T", "S'", "T'")
    assert TT.dim == 64
    T3 = TensorAlgebra((A, A, A))
    assert T3.vars[-1] == "T''"
    assert T3.dim == 512


def test_tensor_factorwise_reduction():
    A = ring_ST()
    S, T = A.gens()
    Q = quotient_algebra(A, [T * T - S], eliminate=False)
    TT = Q.tensor(Q)
    t0 = TT.embed(Q.var("T"), 0)
    t1 = TT.embed(Q.var("T"), 1)
    assert t0 * t0 == TT.embed(Q.var("S"), 0)
    assert (t0 * t1) * (t0 * t1) == TT.elem(Q.var("S"), Q.var("S"))
    assert TT.dim == 16
    assert len(TT.basis_monomials()) == 16


def test_tensor_past_the_dim_limit_is_sparse_and_guards_its_basis():
    # building a tensor lists nothing; only its reduced basis is refused
    A = Algebra(F2, ["x", "y"], [64, 32])
    T3 = TensorAlgebra((A, A, A))
    assert T3.dim == 2048 ** 3 > DIM_LIMIT
    x, y = T3.var("x"), T3.var("y''")
    assert (x + y) ** 2 == x ** 2 + y ** 2 and y ** 32 == T3.zero()
    for call in (T3.basis_monomials, lambda: T3._positions()[T3._zero_mono]):
        with pytest.raises(SizeGuard) as exc:
            call()
        assert exc.value.what == "tensor basis_monomials"
    with pytest.raises(SizeGuard) as exc:
        quotient_algebra(T3, [x], eliminate=False)
    assert exc.value.what == "quotient basis"


@pytest.mark.parametrize("F", [F2, F3, F4], ids=lambda F: F.name)
def test_map_leg_is_the_leg_substitution(F):
    # u -> u ox 1 + 1 ox u - u ox u on the second leg of Q ox B, against
    # apply_map on renamed variables; Q is a quotient, so the first leg is
    # a reduced basis monomial that the concatenated keys must keep
    A = ring_ST(F)
    S, T = A.gens()
    Q = quotient_algebra(A, [T * T - S * T], eliminate=False)
    B = Algebra(F, ["u"], [F.p ** 2])
    BB, QB, QBB = B.tensor(B), Q.tensor(B), Q.tensor(B, B)
    g = BB.var("u") + BB.var("u'") - BB.var("u") * BB.var("u'")
    sQ, tQ, u = Q.var("S"), Q.var("T"), B.var("u")
    f = (QB.elem(tQ, u ** 2) * QB.scalar(F.q - 1) + QB.elem(sQ + tQ, u)
         + QB.elem(Q.one(), u ** 3) + QB.elem(sQ * tQ, u ** 2))
    images = {"u'": QBB.var("u'") + QBB.var("u''")
              - QBB.var("u'") * QBB.var("u''")}

    def fn(m):
        return apply_map(Poly(B, {m: 1}), {"u": g}, BB).d

    assert map_leg(f, 1, fn, QBB) == apply_map(f, images, QBB)
    assert map_leg(QB.zero(), 1, fn, QBB) == QBB.zero()


@pytest.mark.parametrize("F", [F2, F3, F4], ids=lambda F: F.name)
def test_map_leg_on_several_slots_is_the_leg_substitution(F):
    # f ox id ox f on Q ox C ox Q into B ox C ox B, and f ox f on Q ox Q,
    # against apply_map on renamed variables; f meets itself on B's keys
    A = ring_ST(F)
    S, T = A.gens()
    Q = quotient_algebra(A, [T * T - S * T], eliminate=False)
    B = Algebra(F, ["x", "y"], [F.p, F.p ** 2])
    C = Algebra(F, ["u"], [F.p])
    x, y = B.gens()
    f = {"S": x * y, "T": x + y + y * y * B.scalar(F.q - 1)}
    image = _mono_images(Q, f, B)
    QCQ, BCB = Q.tensor(C, Q), B.tensor(C, B)
    sQ, tQ, u = Q.var("S"), Q.var("T"), C.var("u")
    g = (QCQ.elem(tQ, u, sQ + tQ) * QCQ.scalar(F.q - 1)
         + QCQ.elem(sQ, C.one(), tQ) + QCQ.elem(Q.one(), u, sQ * tQ)
         + QCQ.elem(sQ + tQ, u, Q.one()) + QCQ.elem(tQ, C.one(), tQ))
    legs = {nm: BCB.embed(v, 0) for nm, v in f.items()}
    legs.update({nm + "''": BCB.embed(v, 2) for nm, v in f.items()})
    assert map_leg(g, (0, 2), image, BCB) == apply_map(g, legs, BCB)
    QQ, BB = Q.tensor(Q), B.tensor(B)
    dx = (QQ.elem(tQ, tQ) + QQ.elem(sQ, tQ) + QQ.elem(tQ, sQ)
          + QQ.elem(sQ, Q.one()))
    ff = {nm: BB.embed(v, 0) for nm, v in f.items()}
    ff.update({nm + "'": BB.embed(v, 1) for nm, v in f.items()})
    assert map_leg(dx, (0, 1), image, BB) == apply_map(dx, ff, BB)


@settings(max_examples=40, deadline=None)
@given(F=st.sampled_from([F2, F4, F3]), k=st.integers(2, 3), data=st.data())
def test_multiply_legs_is_the_product_over_renamed_variables(F, k, data):
    # k legs of the quotient Q, each sent by a random algebra map Q -> Q or
    # by the identity, against apply_map with leg i's variables renamed by
    # i ticks (the reference the tick-free primitive replaced)
    A = ring_ST(F)
    S, T = A.gens()
    Q = quotient_algebra(A, [T * T - S * T], eliminate=False)
    Qk = TensorAlgebra((Q,) * k)
    f = random_poly(data.draw, Qk, max_terms=6)
    fns, renamed = [], {}
    for i in range(k):
        if data.draw(st.booleans()):
            fns.append(lambda m: {m: 1})
            images = {nm: Q.var(nm) for nm in Q.vars}
        else:
            images = {nm: random_poly(data.draw, Q) for nm in Q.vars}
            fns.append(_mono_images(Q, images, Q))
        renamed.update({nm + "'" * i: v for nm, v in images.items()})
    assert multiply_legs(f, fns, Q) == apply_map(f, renamed, Q)


def test_multiply_legs_wants_one_map_per_leg():
    A = ring_ST()
    with pytest.raises(BadParams):
        multiply_legs(A.tensor(A).one(), (lambda m: {m: 1},), A)


# a name with ticks appended: nm + "'", "'" * k, f"{nm}'"
_TICKED = re.compile(r"""\+\s*("'+"|'\\'+')|"'+"\s*\*|\{\w+\}'+["']""")


def test_only_talg_renames_tensor_legs_with_ticks():
    # every other module reaches a tensor leg through map_leg or
    # multiply_legs, never through a variable renamed with ticks
    src = Path(gsl.__file__).parent
    hits = ["%s:%d: %s" % (path.name, i, line.strip())
            for path in sorted(src.glob("*.py")) if path.name != "talg.py"
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if _TICKED.search(line)]
    assert hits == []
    assert _TICKED.search((src / "talg.py").read_text())


# talg's key-format internals, which no other module may touch
_KEY_INTERNALS = {"index_mono", "mono_index", "mono_mul", "_mono_mul",
                  "mono_pow", "_mono_pow", "_zero_mono", "_pack", "_lay"}


def _key_format_uses(source):
    """Lines of source that reach into the key format: a use of one of
    ``_KEY_INTERNALS``; a dict key, displayed or stored, sliced or summed
    from tuples; or a tuple display as a key of a dict handed to Poly,
    poly or monomial."""

    def sliced(node):
        if isinstance(node, ast.Subscript):
            return isinstance(node.slice, ast.Slice)
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                and any(isinstance(n, ast.Tuple) or sliced(n)
                        for n in (node.left, node.right)))

    def keys(node):
        return (node.keys if isinstance(node, ast.Dict)
                else [node.key] if isinstance(node, ast.DictComp) else [])

    hits = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _KEY_INTERNALS:
            hits.add(node.lineno)
        hits.update(k.lineno for k in keys(node)
                    if k is not None and sliced(k))
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                and sliced(node.slice)):
            hits.add(node.lineno)
        if isinstance(node, ast.Call) and getattr(
                node.func, "attr", getattr(node.func, "id", None)) in (
                    "Poly", "poly", "monomial"):
            hits.update(k.lineno for arg in node.args for k in keys(arg)
                        if isinstance(k, ast.Tuple))
    return sorted(hits)


def test_only_talg_knows_the_key_format():
    # every other module reads a monomial key through Algebra's accessors
    # (exponents, degree, split_mono, join_mono) and builds one through
    # poly/monomial, never from an exponent tuple
    src = Path(gsl.__file__).parent
    hits = ["%s:%d" % (path.name, i)
            for path in sorted(src.glob("*.py")) if path.name != "talg.py"
            for i in _key_format_uses(path.read_text())]
    assert hits == []
    # what the check catches: the spellings that went before
    for line in ("A.poly({m1 + (0,): c})", "{m[a:] + m[:a]: c for m in d}",
                 "d[m + (int(i),)] = c", "out.setdefault(i, {})[m[:-1]] = c",
                 "Poly(L, {(0, 1): 1})", "z = A._zero_mono",
                 "A.mono_mul(m1, m2)", "max(g.d, key=A.mono_index)"):
        assert _key_format_uses(line) == [1], line
    assert _key_format_uses("A.poly({m: 1}); t.join_mono((a, b))") == []


# the catalogue groups the GF(2) and odd-characteristic benchmarks build
_BENCH_GROUPS = (
    [(F2, cid) for cid in (
        "SL2_kerF(2)", "SL2_kerF(3)", "pullback(1,1,3)", "kerFV",
        "pullback(1,0,2)", "pullback(0,1,2)", "pullback(1,1,2)",
        "Hunip(s1=1,s2=0,n=2)", "Hunip(s1=1,s2=1,n=2)", "D(3,A)", "D(3,B)",
        "H(1,3)", "witt2", "cocycle_ext(a=1,n=3)",
        "semidirect(D(2),mu(1),w=[-1,1])", "alpha(6)", "mu(6)")]
    + [(Field(p, m), "SL2_kerF(1)")
       for p, m in ((3, 1), (2, 2), (3, 2), (2, 8), (3, 6), (5, 1))]
    + [(F5, "Hunip(s1=1,s2=2,n=1)"), (F4, "pullback(1,1,1)")]
    + [(F, cid) for F in (F3, F5)
       for cid in ("D(2)", "alpha(3)", "H(1,2)", "mu(2)")])


@pytest.mark.parametrize("F,cid", _BENCH_GROUPS,
                         ids=lambda x: x.name if isinstance(x, Field) else x)
def test_antipode_axiom_on_the_bench_groups(F, cid):
    # mu (S ox id) delta(x) = mu (id ox S) delta(x) = eps(x) on generators
    H = zoo_parse(cid, F)
    A = H.carrier
    S = _mono_images(A, H.antipode, A)
    for nm in A.vars:
        dx = H.delta[nm]
        eps = A.scalar(H.counit[nm])
        assert multiply_legs(dx, (S, lambda m: {m: 1}), A) == eps
        assert multiply_legs(dx, (lambda m: {m: 1}, S), A) == eps


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), data=st.data())
def test_rebound_memo_equals_a_fresh_one(p, data):
    # rebind in any order, now and then to None, filling the memo in
    # between; every monomial then maps as under the final images
    F = Field(p)
    src = Algebra(F, ["a", "b", "c"], [p, 2, p])
    amb = Algebra(F, ["x", "y"], [p, p])
    x, y = amb.gens()
    Q = quotient_algebra(amb, [y * y - x * y], eliminate=False)
    polys = st.builds(Q.poly, st.dictionaries(
        st.sampled_from(Q.basis_monomials()), st.integers(1, p - 1),
        min_size=1, max_size=3))
    images = [None] * 3
    image = _mono_images(src, {}, Q, allow_missing=src.vars)

    def readable():
        return [m for m in src.monomials()
                if all(images[k] is not None
                       for k, e in enumerate(src.exponents(m)) if e)]

    for _ in range(data.draw(st.integers(1, 10))):
        k = data.draw(st.integers(0, 2))
        images[k] = data.draw(polys) if data.draw(st.integers(0, 4)) else None
        image.rebind(k, images[k])
        for m in readable():
            image(m)
    bound = {nm: v for nm, v in zip(src.vars, images) if v is not None}
    fresh = _mono_images(src, bound, Q, allow_missing=src.vars)
    for m in readable():
        assert image(m) == fresh(m)


def test_plain_algebras_skip_reduction():
    A = ring_ST()
    S, T = A.gens()
    Q = quotient_algebra(A, [T * T - S], eliminate=False)
    assert A._plain and A.tensor(A)._plain
    assert not Q._plain and not Q.tensor(A)._plain
    TT = A.tensor(A)
    t, t_ = TT.var("T"), TT.var("T'")
    assert (t + t_) ** 3 == t ** 3 + t ** 2 * t_ + t * t_ ** 2 + t_ ** 3


def test_tensor_embed_guards():
    A, B = ring_ST(), ring_ST()
    TT = A.tensor(A)
    with pytest.raises(BadParams):
        TT.embed(B.var("T"), 0)
    with pytest.raises(BadParams):
        TT.elem(A.var("T"))  # wrong number of legs


def test_tensor_elem_is_product_of_embeds():
    A = ring_ST()
    S, T = A.gens()
    TT = A.tensor(A)
    assert TT.elem(S, T) == TT.embed(S, 0) * TT.embed(T, 1)
    assert TT.elem(A.one(), A.one()) == TT.one()


# -- units ----------------------------------------------------------------------

def test_invert_unit_nilpotent_series():
    A = Algebra(F2, ["T"], [4])
    T = A.var("T")
    inv = invert_unit(1 + T)
    assert inv == 1 + T + T ** 2 + T ** 3
    assert (1 + T) * inv == 1
    F5 = Field(5)
    B = Algebra(F5, ["T"], [4])
    T = B.var("T")
    inv = invert_unit(1 + T)
    assert (1 + T) * inv == 1


def test_invert_unit_laurent():
    A = Algebra(F2, ["T", "X"], [2, 0], ["nil", "laurent"])
    T, X = A.gens()
    inv = invert_unit(T + X)
    assert (T + X) * inv == 1
    assert inv == X ** -1 + T * X ** -2
    with pytest.raises(NonUnit):
        invert_unit(1 + X)  # not a unit of the laurent ring
    with pytest.raises(NonUnit):
        invert_unit(T)


@settings(max_examples=50)
@given(data=st.data())
def test_invert_unit_property(data):
    A = Algebra(F4, ["S", "T"], [2, 4])
    n = random_poly(data.draw, A)
    n = n - A.scalar(n.constant_term())  # kill the constant part
    c = data.draw(st.integers(1, 3))
    f = A.scalar(c) + n
    assert f * invert_unit(f) == A.one()


# -- maps -------------------------------------------------------------------------

def test_apply_map_defaults_to_same_names():
    A = ring_ST()
    B = ring_ST()
    S, T = A.gens()
    img = apply_map(S + T ** 2, {"S": B.var("T") ** 2}, B)
    assert img == B.var("T") ** 2 + B.var("T") ** 2
    assert img == 0  # char 2


def test_apply_map_coeff_twist():
    A = Algebra(F4, ["T"], [2])
    B = Algebra(F4, ["T"], [2])
    g = F4.gen
    f = A.scalar(g) * A.var("T")
    img = apply_map(f, {}, B, coeff_map=lambda c: F4.frob(c))
    assert img == B.scalar(F4.mul(g, g)) * B.var("T")


def naive_apply_map(f, images, target, coeff_map=None, allow_missing=()):
    """``apply_map`` term by term: a scalar Poly per term, a product per
    variable power, and the accumulator copied for each term added.  The
    route the memoised kernel replaced, kept as an oracle."""
    src = f.alg
    imgs = []
    for nm in src.vars:
        if nm in images:
            imgs.append(images[nm])
        elif nm in allow_missing:
            imgs.append(None)
        else:
            imgs.append(target.var(nm))
    out = target.zero()
    for m, c in f.d.items():
        if coeff_map is not None:
            c = coeff_map(c)
        term = target.scalar(c)
        for img, e in zip(imgs, src.exponents(m)):
            if e == 0:
                continue
            if img is None:
                raise BadParams("nonzero exponent on a dropped variable")
            term = term * img ** e
        out = out + term
    return out


def _map_targets(F):
    """A free target B, a quotient Q of k[a,b,c] with c eliminated to the
    alias a*b, and the tensor Q ox B (names a, b, u', v')."""
    amb = Algebra(F, ["a", "b", "c"], [4, 4, 4])
    a, b, c = amb.gens()
    Q = quotient_algebra(amb, [c - a * b, b ** 3 - a ** 2])
    assert Q.vars == ("a", "b") and "c" in Q.aliases and Q.groebner
    B = Algebra(F, ["u", "v"], [4, F.p], ["nil", "unit"])
    return B, Q, TensorAlgebra((Q, B))


def _map_cases(F):
    """(source, target, names given images, allow_missing) per target
    kind; the other source names go to same-named variables or aliases."""
    B, Q, T = _map_targets(F)
    return {
        "free": (Algebra(F, ["x", "y", "v"], [4, 3, F.p], ["nil", "nil", "unit"]),
                 B, ["x", "y"], ()),
        "quotient": (Algebra(F, ["a", "c", "w"], [4, 4, 3]), Q, ["w"], ()),
        "tensor": (Algebra(F, ["a", "x", "u'"], [4, 3, 4], allow_ticks=True),
                   T, ["x"], ()),
        "missing": (Algebra(F, ["x", "z", "u"], [4, 3, 4]), B, ["x"], ["z"]),
    }


def _outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except BadParams:
        return BadParams


@pytest.mark.parametrize("F", [F2, F3, F4, F5], ids=lambda F: F.name)
@pytest.mark.parametrize("case", ["free", "quotient", "tensor", "missing"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_apply_map_matches_the_term_by_term_oracle(F, case, data):
    src, target, imaged, missing = _map_cases(F)[case]
    f = random_poly(data.draw, src, max_terms=6)
    images = {nm: random_poly(data.draw, target) for nm in imaged}
    twist = data.draw(st.booleans())
    kw = {"allow_missing": missing}
    if twist:
        kw["coeff_map"] = lambda c: F.frob(c)
    got = _outcome(apply_map, f, images, target, **kw)
    assert got == _outcome(naive_apply_map, f, images, target, **kw)
    if missing:
        # raised exactly when f has a nonzero exponent on the dropped name
        z = src.vars.index(missing[0])
        assert (got is BadParams) == any(src.exponents(m)[z] for m in f.d)
    else:
        assert got is not BadParams and got.alg is target


@pytest.mark.parametrize("F", [F2, F3, F4, F5], ids=lambda F: F.name)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_apply_map_identity_path_matches_the_oracle(F, data):
    # no images onto the same variables, orders and kinds: keys copied
    # (the target itself, or a tensor over the same factor objects) or
    # reduced (the quotient's free shell, or a tensor over that shell)
    B, Q, T = _map_targets(F)
    sources = [Q, Q.ambient, TensorAlgebra((Q, B)),
               TensorAlgebra((Q.ambient, B)), B]
    for src, target in zip(sources, [Q, Q, T, T, B]):
        f = random_poly(data.draw, src, max_terms=6)
        for kw in ({}, {"coeff_map": lambda c: F.frob(c)}):
            got = apply_map(f, {}, target, **kw)
            assert got.alg is target
            assert got == naive_apply_map(f, {}, target, **kw)


def test_apply_map_refuses_codes_outside_the_target_field():
    f = Algebra(F4, ["T"], [2]).scalar(F4.gen)
    for target in (Algebra(F2, ["T"], [2]), Algebra(F2, ["S"], [2])):
        with pytest.raises(BadParams):
            apply_map(f, {}, target, allow_missing=["T"])
        with pytest.raises(BadParams):
            naive_apply_map(f, {}, target, allow_missing=["T"])


# -- subalgebras and gradings ------------------------------------------------------

def test_subalgebra_generated():
    A = ring_ST()
    S, T = A.gens()
    sub = subalgebra_generated(A, [T ** 2, S * T])
    assert sub.dim == 4  # spans 1, T^2, ST, ST^3
    assert sub.contains(A.to_vector(S * T ** 3))
    assert not sub.contains(A.to_vector(T))


def test_weight_decomposition_free():
    A = ring_ST()
    wd = weight_decomposition(A, {"S": 1, "T": 1}, 2)
    assert sorted(wd) == [0, 1]
    assert [A.exponents(m) for m in wd[0]] == [(0, 0), (1, 1), (0, 2), (1, 3)]
    assert len(wd[1]) == 4


def test_weight_decomposition_quotient():
    A = ring_ST()
    S, T = A.gens()
    Q = quotient_algebra(A, [S * T], eliminate=False)
    wd = weight_decomposition(Q, {"S": 1, "T": 1}, 2)
    assert {w: len(ms) for w, ms in wd.items()} == {0: 2, 1: 3}


def test_weight_decomposition_rejects_inhomogeneous():
    A = ring_ST()
    S, T = A.gens()
    Q = quotient_algebra(A, [S - T ** 2], eliminate=False)
    with pytest.raises(NotHomogeneous):
        weight_decomposition(Q, {"S": 1, "T": 1}, 2)
    # but S has weight 0 = weight of T^2 under the other grading
    wd = weight_decomposition(Q, {"S": 0, "T": 1}, 2)
    assert sum(len(v) for v in wd.values()) == Q.dim


def test_weight_decomposition_unit_variable_guard():
    A = Algebra(F2, ["W"], [4], ["unit"])
    assert 0 in weight_decomposition(A, {"W": 2}, 2)
    with pytest.raises(NotHomogeneous):
        weight_decomposition(A, {"W": 1}, 3)


# -- printing -----------------------------------------------------------------------

def test_poly_str():
    A = Algebra(F4, ["S", "T"], [2, 4])
    S, T = A.gens()
    g = A.scalar(F4.gen)
    assert str(A.zero()) == "0"
    assert str(A.one()) == "1"
    assert str(S * T + T) == "T + S*T"
    assert str(g * T ** 2) == "g*T^2"
    assert str((g + A.one()) * T) == "(g+1)*T"


# -- packed monomial keys ----------------------------------------------------

_LAURENT = 1 << 31  # laurent exponents live in [-2^31, 2^31)


@st.composite
def key_algebras(draw):
    """A free algebra of nil, unit and laurent variables over GF(p),
    alone or as a tensor of two or three such factors."""
    p = draw(st.sampled_from([2, 3, 5]))
    F = Field(p)

    def factor(k):
        kinds = draw(st.lists(st.sampled_from(["nil", "unit", "laurent"]),
                              max_size=3))
        orders = [0 if kd == "laurent" else
                  p ** draw(st.integers(1, 3)) if kd == "unit" else
                  draw(st.integers(2, 30)) for kd in kinds]
        return Algebra(F, ["x%d_%d" % (k, i) for i in range(len(kinds))],
                       orders, kinds)

    factors = [factor(k) for k in range(draw(st.integers(1, 3)))]
    return factors[0] if len(factors) == 1 else TensorAlgebra(factors)


def exponent_tuples(A):
    laurent = st.one_of(st.integers(-40, 40),
                        st.integers(-_LAURENT, _LAURENT - 1))
    return st.tuples(*[laurent if kd == "laurent" else st.integers(0, d - 1)
                       for d, kd in zip(A.orders, A.kinds)])


def in_range(A, e):
    """e under the exponent rules, or SizeGuard past the laurent range."""
    if any(not -_LAURENT <= x < _LAURENT
           for x, kd in zip(e, A.kinds) if kd == "laurent"):
        return SizeGuard
    return e


def tuple_pow(A, m, k):
    """m^k by the exponent-tuple rule, or None when a nil power dies."""
    out = []
    for e, d, kd in zip(m, A.orders, A.kinds):
        e *= k
        if kd == "nil":
            if e >= d:
                return None
        elif kd == "unit":
            e %= d
        out.append(e)
    return tuple(out)


def key_of(f):
    (m,) = f.d
    return m


def _monomial_or_guard(fn):
    try:
        f = fn()
    except SizeGuard:
        return SizeGuard
    return None if not f else f.alg.exponents(key_of(f))


@settings(max_examples=200, deadline=None)
@given(A=key_algebras(), data=st.data())
def test_packed_keys_follow_the_exponent_tuple_rules(A, data):
    e1, e2 = data.draw(exponent_tuples(A)), data.draw(exponent_tuples(A))
    f1, f2 = A.monomial(e1), A.monomial(e2)
    k1, k2 = key_of(f1), key_of(f2)
    # packing then unpacking returns the tuple
    assert A.exponents(k1) == e1 and A.exponents(k2) == e2
    assert tuple(A.exponent(k1, i) for i in range(len(e1))) == e1
    # the product of keys is the tuple product
    want = tuple_mul(A, e1, e2)
    assert _monomial_or_guard(lambda: f1 * f2) == (
        None if want is None else in_range(A, want))
    # the p-th power
    want = tuple_pow(A, e1, A.field.p)
    assert _monomial_or_guard(lambda: f1 ** A.field.p) == (
        None if want is None else in_range(A, want))
    # divisibility of reduced keys, and the quotient
    divides = all(a <= b for a, b in zip(e1, e2))
    assert _divides(k1, k2, A._lay.guard) == divides
    if divides and "laurent" not in A.kinds:
        assert A.exponents(k2 - k1) == tuple(b - a for a, b in zip(e1, e2))
    # key order is index order: the last variable most significant
    assert (k1 < k2) == (e1[::-1] < e2[::-1])
    assert (k1 == k2) == (e1 == e2)
    # legs: a shift and a mask each, joined by an OR
    if isinstance(A, TensorAlgebra):
        legs = A.split_mono(k1)
        at = 0
        for fac, leg in zip(A.factors, legs):
            n = len(fac.vars)
            assert fac.exponents(leg) == e1[at:at + n]
            at += n
        assert A.join_mono(legs) == k1


# -- GF(2) toggles, and the memos of tensor residues and of powers -------------

F9 = Field(3, 2)


def _zero_one_maps(F):
    """Algebras over F whose every code is 0 or 1: a free A with nil and
    unit variables, a quotient Q of it, a free B, and two leg maps, one
    B -> B ox B shaped like a coproduct and one Q -> Q."""
    A = Algebra(F, ["x", "y", "u"], [4, 2, 4], ["nil", "nil", "unit"])
    x, y, u = A.gens()
    Q = quotient_algebra(A, [x * x + x * y * u, y * u + y + x ** 3],
                         eliminate=False)
    B = Algebra(F, ["v", "w"], [2, 4], ["unit", "nil"])
    BB = B.tensor(B)
    v, w, v_, w_ = BB.gens()
    delta = _mono_images(B, {"v": v * v_, "w": w + w_ + w * w_}, BB)
    qx, qy, qu = Q.gens()
    endo = _mono_images(Q, {"x": qx + qx * qu, "y": qy * qu, "u": 1 + qx},
                        Q)
    return A, Q, B, delta, endo


def _zero_one_results(F, keys, coded, tuples):
    """mul_dicts, reduce_dict, map_leg and multiply_legs over F on the
    drawn keys (all codes 1) and coded terms (codes 0 or 1), the sums
    that go through ``_sum_terms`` (poly on coded exponent tuples and
    invert_unit), a fresh quotient's reduce_term and the Frobenius
    power; each result as its list of items, in insertion order."""
    A, Q, B, delta, endo = _zero_one_maps(F)
    QB, QQ = Q.tensor(B), Q.tensor(Q)
    out = []
    for alg in (A, Q, A.tensor(A), QB):
        d1, d2 = ({m: 1 for m in ks} for ks in keys[alg.vars])
        out.append(alg.mul_dicts(d1, d2))
    for alg in (Q, QB):
        out.append(alg.reduce_dict(dict(coded[alg.vars])))
    fresh = QuotientAlgebra(A, Q.groebner)
    for m, _ in coded[Q.vars]:
        red = fresh.reduce_term(m)
        out.append({m: 1} if red is None else red)
    for alg in (A, Q):
        out.append(alg.poly(dict(tuples)).d)
        f = Poly(alg, {m: 1 for m in keys[alg.vars][0]})
        out.append(f._frobenius_power().d)
        # f is a unit when an odd number of its terms miss x and y
        local = sum(1 for m in f.d if not any(alg.exponents(m)[:2]))
        out.append(invert_unit(f if local % 2 else f + 1).d)
    f = Poly(QB, {m: 1 for m in keys[QB.vars][0]})
    out.append(map_leg(f, 1, delta, TensorAlgebra((Q, B, B))).d)
    g = Poly(QQ, {m: 1 for m in keys[QQ.vars][0]})
    out.append(map_leg(g, (0, 1), endo, QQ).d)
    out.append(multiply_legs(g, (endo, lambda m: {m: 1}), Q).d)
    return [list(d.items()) for d in out]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gf2_toggles_match_the_generic_path_in_order(data):
    # codes 0 and 1 add over GF(4) as over GF(2), 1 + 1 = 0, but GF(4)
    # runs the generic add/mul path: the GF(2) key toggles must give the
    # same dicts in the same insertion order, which is the order reports
    # list failures in
    A, Q, B, _, _ = _zero_one_maps(F2)
    pools = {alg.vars: alg.basis_monomials()
             for alg in (A, Q, A.tensor(A), Q.tensor(B), Q.tensor(Q))}
    keys = {vs: [data.draw(st.lists(st.sampled_from(pool), max_size=10,
                                    unique=True)) for _ in range(2)]
            for vs, pool in pools.items()}
    # reduce_dict reads shell keys, and skips a zero code
    shells = {Q.vars: A.monomials(),
              Q.tensor(B).vars: A.tensor(B).basis_monomials()}
    coded = {vs: data.draw(st.lists(
        st.tuples(st.sampled_from(pool), st.integers(0, 1)), max_size=12,
        unique_by=lambda t: t[0])) for vs, pool in shells.items()}
    # exponent tuples of A: u's exponents wrap onto one key mod 4, and a
    # power of x or y past its order dies
    tuples = data.draw(st.lists(st.tuples(
        st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 11)),
        st.integers(0, 1)), max_size=12, unique_by=lambda t: t[0]))
    assert _zero_one_results(F2, keys, coded, tuples) == _zero_one_results(
        F4, keys, coded, tuples)


def _leg_residue_product(T, m):
    """The residue of the key m of T, joined by hand from its legs'
    residues: one product of codes per choice of a term in each leg."""
    F, want, legs = T.field, {}, []
    for fac, leg in zip(T.factors, T.split_mono(m)):
        red = fac.reduce_term(leg)
        legs.append({leg: 1} if red is None else red)
    for terms in itertools.product(*(red.items() for red in legs)):
        c = 1
        for _, c2 in terms:
            c = F.mul(c, c2)
        k = T.join_mono([leg for leg, _ in terms])
        want[k] = F.add(want.get(k, 0), c)
    return {k: c for k, c in want.items() if c}


@pytest.mark.parametrize("F", [F2, F3, F4, F9], ids=lambda F: F.name)
def test_tensor_residues_are_memoised_leg_products(F):
    # Q ox C ox Q2 over every key of its shell, each leg reduced or not
    p = F.p
    A = Algebra(F, ["x", "y"], [p + 1, p], ["nil", "unit"])
    x, y = A.gens()
    Q = quotient_algebra(A, [x * y - x + x * x], eliminate=False)
    C = Algebra(F, ["z"], [3])
    D = Algebra(F, ["t", "s"], [p + 1, 2])
    t, s = D.gens()
    Q2 = quotient_algebra(D, [s * t - t * t * D.scalar(F.q - 1)],
                          eliminate=False)
    T = TensorAlgebra((Q, C, Q2))
    assert Q.groebner and Q2.groebner and not T._plain
    shell = TensorAlgebra((A, C, D)).basis_monomials()
    for m in shell:
        got = T.reduce_term(m)
        if all(fac.reduce_term(leg) is None
               for fac, leg in zip(T.factors, T.split_mono(m))):
            assert got is None
        else:
            assert got == _leg_residue_product(T, m)
        assert T.reduce_term(m) is got and T._memo[m] is got
    assert len(T._memo) == len(shell)
    # a plain tensor never fills its memo
    P = TensorAlgebra((A, C))
    assert all(P.reduce_term(m) is None for m in P.basis_monomials())
    assert P._memo == {}


@pytest.mark.parametrize("F", [F2, F3, F4, F9], ids=lambda F: F.name)
def test_mono_image_powers_are_repeated_products(F):
    # every power of every variable's image, asked for from the top down
    # so that the low ones come out of the memo, against a loop of
    # products; a laurent variable's negative powers against x^-1's
    p = F.p
    amb = Algebra(F, ["x", "y"], [p * p + 2, p * p], ["nil", "unit"])
    x, y = amb.gens()
    Q = quotient_algebra(amb, [x ** (p + 2) * y - x ** (p + 2)],
                         eliminate=False)
    qx, qy = Q.gens()
    src = Algebra(F, ["a", "b", "c"], [p * p + 1, p * p, p],
                  ["nil", "unit", "nil"])
    images = {"a": qx + qy, "b": qy + qx * qy * Q.scalar(F.q - 1),
              "c": qx * qx + qy}
    image = _mono_images(src, images, Q)
    for nm, d in zip(src.vars, src.orders):
        img = images[nm]
        for e in range(d - 1, 0, -1):
            want = img
            for _ in range(e - 1):
                want = want * img
            assert Poly(Q, image(key(src, {nm: e}))) == want, (nm, e)
    L = Algebra(F, ["X"], [0], ["laurent"])
    unit = 1 + qx + qx * qy
    image = _mono_images(L, {"X": unit}, Q)
    inv = invert_unit(unit)
    for e in (-p * p - 1, p * p + 1, -p, p, -1, 1, -2, 2):
        want = Q.one()
        for _ in range(abs(e)):
            want = want * (unit if e > 0 else inv)
        assert Poly(Q, image(key(L, {"X": e}))) == want, e
    assert Poly(Q, image(key(L, {"X": p}))) * Poly(
        Q, image(key(L, {"X": -p}))) == Q.one()


@pytest.mark.parametrize("F", [F2, F3, F4, F9], ids=lambda F: F.name)
def test_powers_seeded_with_an_inverse_are_repeated_products(F):
    # semidirect's powers of W = 1 + U, and coaction_verify's powers of
    # a line coaction's series s with negative degrees: one _power memo
    # seeded with x and x^-1, asked for from the top down in both
    # directions, against loops of products of x or of x^-1
    p = F.p
    shell = Algebra(F, ["T", "U"], [p, p * p])
    W = 1 + shell.var("U")
    G = zoo_parse("alpha(1)", F)
    s = Coaction(G, {1: G.carrier.one(), -1: G.carrier.var("T")}).series
    for x in (W, s):
        inv = invert_unit(x)
        powers = {1: x.d, -1: inv.d}
        for e in sorted(range(-p * p - 2, p * p + 3), key=abs, reverse=True):
            want = x.alg.one()
            for _ in range(abs(e)):
                want = want * (x if e > 0 else inv)
            assert Poly(x.alg, _power(powers, e, x.alg)) == want, e


@pytest.mark.parametrize("F,cid,plain", [
    (F2, "SL2_kerF(2)", True), (F3, "SL2_kerF(1)", True),
    (F2, "pullback(1,1,2)", False)], ids=lambda x: getattr(x, "name", x))
def test_verify_fills_the_residue_memo_of_a_quotient_square_only(F, cid,
                                                                  plain):
    H = zoo_parse(cid, F)
    t2 = H.t2()
    assert gsl.hopf_verify(H)["ok"] and t2._plain is plain
    assert bool(t2._memo) is not plain
