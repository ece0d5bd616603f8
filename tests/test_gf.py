import pytest
from hypothesis import given, strategies as st

from gsl import DivideByZero, Field, ParseError, ReducibleModulus, UnsupportedSize, field_from_name
from gsl.gf import (DEFAULT_MODULI, _digits, _encode, _poly_irreducible_factor,
                    _poly_mul, _poly_rem, _search_modulus)


SMALL_FIELDS = [Field(2, 1), Field(2, 2), Field(2, 3), Field(2, 4),
                Field(3, 1), Field(3, 2), Field(5, 1)]
F256 = Field(2, 8)
F625 = Field(5, 4)
F729 = Field(3, 6)
F15625 = Field(5, 6)
F390625 = Field(5, 8)


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=lambda F: F.name)
def test_field_axioms_exhaustive(F):
    els = list(F.elements())
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@given(a=st.integers(0, 255), b=st.integers(0, 255), c=st.integers(0, 255))
def test_field_axioms_sampled_gf256(a, b, c):
    F = F256
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    if a != 0:
        assert F.mul(a, F.inv(a)) == 1


@given(a=st.integers(0, 5 ** 6 - 1), b=st.integers(0, 5 ** 6 - 1))
def test_untabled_field_matches_axioms(a, b):
    # GF(5^6) lies above GF(3^8), the largest field of characteristic 3,
    # and is tabled like every other field
    F = F15625
    assert F.mul(a, b) == F.mul(b, a)
    assert F.sub(F.add(a, b), b) == a
    if a != 0:
        assert F.div(F.mul(a, b), a) == b


def _assert_tables_match_polynomials(F, a, b):
    p, m = F.p, F.m
    va, vb = _digits(a, p, m), _digits(b, p, m)
    assert F.neg(a) == _encode([-x % p for x in va], p)
    assert F.mul(a, b) == _encode(
        _poly_rem(_poly_mul(va, vb, p), F.modulus, p), p)
    assert F.add(a, b) == _encode([(x + y) % p for x, y in zip(va, vb)], p)
    if a:
        assert F.mul(a, F.inv(a)) == 1


TABLED = [(p, m) for p, top in ((2, 8), (3, 5), (5, 3)) for m in range(1, top + 1)]


@pytest.mark.parametrize("pm", TABLED, ids=lambda pm: "GF(%d^%d)" % pm)
def test_tables_equal_polynomial_arithmetic(pm):
    # the exp/log-built tables against one polynomial product per pair
    F = Field(*pm)
    assert F._log is not None
    for a in range(F.q):
        for b in range(F.q):
            _assert_tables_match_polynomials(F, a, b)


@pytest.mark.parametrize("F", [F729, F625, F15625, F390625],
                         ids=lambda F: F.name)
@given(data=st.data())
def test_tables_equal_polynomial_arithmetic_sampled(F, data):
    assert F._log is not None
    els = st.integers(0, F.q - 1)
    _assert_tables_match_polynomials(F, data.draw(els), data.draw(els))


def test_largest_tabled_fields():
    # every field is tabled, up to GF(3^8) and GF(5^8)
    for F in (Field(3, 8), Field(5, 5), F390625):
        assert F._log is not None
        for a in (1, F.p, F.q - 1, F.q // 2):
            assert F.mul(a, F.inv(a)) == 1
            assert F.add(a, F.neg(a)) == 0
            assert F.pow(a, F.q - 1) == 1


@pytest.mark.parametrize("F", [Field(2, 2), Field(3), Field(3, 2), Field(5),
                               F625, F15625], ids=lambda F: F.name)
@given(data=st.data())
def test_axpy_matches_scalar_arithmetic(F, data):
    n = 6
    els = st.integers(0, F.q - 1)
    dst = data.draw(st.lists(els, min_size=n, max_size=n))
    src = data.draw(st.lists(els, min_size=n, max_size=n))
    c = data.draw(els)
    support = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    want = list(dst)
    for i in support:
        want[i] = F.add(want[i], F.mul(c, src[i]))
    F.axpy(dst, c, src, support)
    assert dst == want


def test_generator_and_modulus_gf16():
    F = Field(2, 4)
    assert F.modulus == (1, 1, 0, 0, 1)
    g = F.gen
    assert g == 2
    # g^4 = g + 1 under the pinned modulus
    assert F.pow(g, 4) == F.add(g, 1)
    # g generates the multiplicative group
    assert len({F.pow(g, k) for k in range(15)}) == 15


def test_pinned_moduli_match_search():
    # The pinned table is only a stability guarantee; the deterministic
    # search must agree with it wherever both are defined.
    for (p, m), mod in DEFAULT_MODULI.items():
        assert _search_modulus(p, m) == mod


def test_search_modulus_gf256_is_standard_octic():
    # x^8 + x^4 + x^3 + x + 1, the familiar byte-field polynomial, happens
    # to be the smallest-code irreducible octic, so the search pins it.
    assert F256.modulus == (1, 1, 0, 1, 1, 0, 0, 0, 1)


def test_frobenius_is_field_automorphism():
    for F in (Field(2, 4), Field(3, 2)):
        for a in F.elements():
            for b in F.elements():
                assert F.frob(F.add(a, b)) == F.add(F.frob(a), F.frob(b))
                assert F.frob(F.mul(a, b)) == F.mul(F.frob(a), F.frob(b))
        # fixed field is the prime field
        fixed = [a for a in F.elements() if F.frob(a) == a]
        assert len(fixed) == F.p
        # the automorphism has order m
        for a in F.elements():
            assert F.frob(a, F.m) == a


def test_power_counts_gf16():
    # The nonzero elements form a cyclic group of order 15, so the image
    # of a -> a^n has exactly 15/gcd(n, 15) elements.
    F = Field(2, 4)
    assert len(F.nth_powers(5)) == 3
    assert len(F.nth_powers(3)) == 5
    assert len(F.nth_powers(9)) == 5
    assert len(F.nth_powers(7)) == 15
    assert F.nth_powers(15) == [1]


def test_pow_edge_cases():
    F = Field(3, 2)
    assert F.pow(0, 0) == 1
    assert F.pow(0, 7) == 0
    with pytest.raises(DivideByZero):
        F.pow(0, -1)
    with pytest.raises(DivideByZero):
        F.inv(0)
    for a in F.nonzero():
        assert F.pow(a, -1) == F.inv(a)
        assert F.pow(a, F.q - 1) == 1


def test_unsupported_parameters():
    with pytest.raises(UnsupportedSize):
        Field(7, 1)
    with pytest.raises(UnsupportedSize):
        Field(2, 9)
    with pytest.raises(UnsupportedSize):
        Field(2, 0)


def test_reducible_modulus_reports_factor():
    with pytest.raises(ReducibleModulus) as err:
        Field(2, 2, modulus=(0, 0, 1))  # x^2
    assert err.value.factor == (0, 1)
    with pytest.raises(ReducibleModulus):
        Field(2, 4, modulus=(1, 0, 0, 0, 1))  # x^4 + 1 = (x + 1)^4


def test_custom_modulus_accepted():
    # x^3 + x^2 + 1 is the other irreducible cubic over GF(2)
    F = Field(2, 3, modulus=(1, 0, 1, 1))
    assert F.pow(F.gen, 3) == F.add(F.mul(F.gen, F.gen), 1)
    assert F != Field(2, 3)


def test_irreducibility_helper():
    assert _poly_irreducible_factor((1, 1, 1), 2) is None
    assert _poly_irreducible_factor((1, 0, 1), 2) == (1, 1)  # x^2+1 = (x+1)^2
    assert _poly_irreducible_factor((0, 1), 5) is None


def test_scalar_str():
    F = Field(2, 4)
    assert F.scalar_str(0) == "0"
    assert F.scalar_str(1) == "1"
    assert F.scalar_str(2) == "g"
    assert F.scalar_str(3) == "g+1"
    assert F.scalar_str(8) == "g^3"
    F9 = Field(3, 2)
    assert F9.scalar_str(7) == "2g+1"
    assert Field(5).scalar_str(4) == "4"


def test_field_from_name():
    assert field_from_name("GF(16)") == Field(2, 4)
    assert field_from_name("GF(2^4)") == Field(2, 4)
    assert field_from_name("gf(9)") == Field(3, 2)
    assert field_from_name("F_25") == Field(5, 2)
    assert field_from_name(" GF( 3 ) ") == Field(3, 1)
    with pytest.raises(ParseError):
        field_from_name("GF(12)")
    with pytest.raises(ParseError):
        field_from_name("GF(banana)")


def test_field_equality_and_hash():
    assert Field(2, 4) == Field(2, 4)
    assert hash(Field(2, 4)) == hash(Field(2, 4))
    assert Field(2, 4) != Field(2, 3)
    assert len({Field(2, 2), Field(2, 2), Field(3, 1)}) == 2
