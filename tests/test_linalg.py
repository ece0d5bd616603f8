import pytest
from hypothesis import given, settings, strategies as st

from gsl import Field
from gsl.linalg import (Subspace, _pack, _unpack, column_kernel,
                        subspace_from, subspace_intersect, subspace_sum)

F2 = Field(2)
F3 = Field(3)
F4 = Field(2, 2)
F5 = Field(5)
F9 = Field(3, 2)
F625 = Field(5, 4)  # the largest field here, with m > 1 over p = 5


def vectors(field, n):
    return st.lists(st.lists(st.integers(0, field.q - 1), min_size=n, max_size=n),
                    min_size=0, max_size=6)


@pytest.mark.parametrize("F", [F2, F3, F4, F5, F9, F625],
                         ids=lambda F: F.name)
def test_insert_and_membership(F):
    S = Subspace(F, 4)
    assert S.insert([1, 0, 0, 1])
    assert S.insert([0, 1, 0, 1])
    diff = [1, F.neg(1), 0, 0]  # first row minus the second
    assert not S.insert(diff)
    assert S.dim == 2
    assert S.contains(diff)
    assert not S.contains([0, 0, 1, 0])
    assert S.contains([0, 0, 0, 0])


def test_residue_is_canonical_and_idempotent():
    S = subspace_from(F5, 3, [[1, 2, 1], [0, 3, 1]])
    for v in ([1, 1, 1], [4, 0, 2], [0, 0, 0]):
        r = S.residue(v)
        assert S.residue(r) == r
        # v - r lies in S
        diff = [F5.sub(a, b) for a, b in zip(v, r)]
        assert S.contains(diff)
    # residues are supported away from the pivots
    for l in S.pivots():
        assert S.residue([1, 1, 1])[l] == 0


def test_leading_index_convention():
    # pivots sit on the largest nonzero coordinate, so residues are
    # supported on low indices
    S = subspace_from(F2, 3, [[1, 0, 1]])
    assert S.pivots() == [2]
    assert S.residue([0, 0, 1]) == [1, 0, 0]
    assert S.complement_indices() == [0, 1]


def test_rref_rows_are_fully_reduced():
    S = subspace_from(F5, 4, [[0, 1, 1, 1], [1, 2, 3, 0], [1, 1, 0, 0]])
    rows = S.basis()
    pivots = S.pivots()
    for row, l in zip(rows, pivots):
        assert row[l] == 1
        for other in pivots:
            if other != l:
                assert row[other] == 0


@settings(max_examples=60)
@given(data=st.data(), F=st.sampled_from([F2, F3, F4, F5, F9, F625]))
def test_sum_and_intersection_dimension_formula(data, F):
    n = 5
    A = subspace_from(F, n, data.draw(vectors(F, n)))
    B = subspace_from(F, n, data.draw(vectors(F, n)))
    U = subspace_sum(A, B)
    W = subspace_intersect(A, B)
    assert U.dim + W.dim == A.dim + B.dim
    for v in W.basis():
        assert A.contains(v) and B.contains(v)
    for v in A.basis():
        assert U.contains(v)


def test_intersection_example():
    A = subspace_from(F2, 3, [[1, 0, 0], [0, 1, 0]])
    B = subspace_from(F2, 3, [[0, 1, 0], [0, 0, 1]])
    W = subspace_intersect(A, B)
    assert W.dim == 1
    assert W.contains([0, 1, 0])


def _annihilates(F, columns, v):
    """sum_j v_j columns[j] = 0, key by key."""
    acc = {}
    for c, col in zip(v, columns):
        for key, a in col.items():
            acc[key] = F.add(acc.get(key, 0), F.mul(c, a))
    return not any(acc.values())


def test_right_kernel():
    # the equations x0 + x2 = 0, x1 + 2 x2 = 0 over GF(5), keyed by
    # equation: one column per unknown
    columns = [{0: 1}, {1: 1}, {0: 1, 1: 2}]
    ker = column_kernel(F5, columns)
    assert ker == [[4, 3, 1]]
    assert _annihilates(F5, columns, ker[0])


@settings(max_examples=40)
@given(data=st.data(), F=st.sampled_from([F2, F3, F4, F9, F625]))
def test_right_kernel_dimension(data, F):
    n = 5
    rows = data.draw(vectors(F, n))
    columns = [{i: row[j] for i, row in enumerate(rows)} for j in range(n)]
    rank = subspace_from(F, n, rows).dim
    ker = column_kernel(F, columns)
    assert len(ker) == n - rank
    assert subspace_from(F, n, ker).dim == n - rank
    assert all(_annihilates(F, columns, v) for v in ker)


def augmented_column_kernel(F, columns):
    """The reference: echelonise e_j | columns[j] densely over every key
    met and keep the rows whose high block is zero."""
    keys = list({key: None for col in columns for key in col})
    k = len(columns)
    aug = Subspace(F, k + len(keys))
    for j, col in enumerate(columns):
        unit = [0] * k
        unit[j] = 1
        aug.insert(unit + [col.get(key, 0) for key in keys])
    return [row[:k] for row in aug.basis() if not any(row[k:])]


KEY_POOLS = ([(0, 0), (0, 1), (1, 0), (2, 1), (1, 1, 1)],
             ["a", "b", "ab", "x1", "x2", ""])


@settings(max_examples=150)
@given(data=st.data(), F=st.sampled_from([F2, F3, F4, F5, F9]),
       keys=st.sampled_from(KEY_POOLS))
def test_column_kernel_matches_the_augmented_echelon(data, F, keys):
    # empty columns, all-zero columns and codes 0 inside a column included
    columns = data.draw(st.lists(
        st.dictionaries(st.sampled_from(keys), st.integers(0, F.q - 1),
                        max_size=len(keys)), max_size=7))
    assert column_kernel(F, columns) == augmented_column_kernel(F, columns)


def test_copy_is_independent():
    S = subspace_from(F2, 3, [[1, 1, 0]])
    T = S.copy()
    T.insert([0, 0, 1])
    assert S.dim == 1 and T.dim == 2


class RefEchelon(object):
    """Largest-pivot Gauss-Jordan with one Field call per entry: the
    reference the table-driven list path must agree with exactly."""

    def __init__(self, F, n):
        self.F, self.n, self.rows = F, n, {}

    def residue(self, vec):
        F, vec = self.F, list(vec)
        for l in range(self.n - 1, -1, -1):
            c = vec[l]
            if c and l in self.rows:
                row = self.rows[l]
                for i in range(l + 1):
                    if row[i]:
                        vec[i] = F.sub(vec[i], F.mul(c, row[i]))
        return vec

    def insert(self, vec):
        F = self.F
        vec = self.residue(vec)
        lead = [i for i, x in enumerate(vec) if x]
        if not lead:
            return False
        l = lead[-1]
        c = F.inv(vec[l])
        vec = [F.mul(c, x) for x in vec]
        for k, row in self.rows.items():
            d = row[l]
            if d:
                self.rows[k] = [F.sub(x, F.mul(d, y)) for x, y in zip(row, vec)]
        self.rows[l] = vec
        return True


@settings(max_examples=80)
@given(data=st.data(), F=st.sampled_from([F2, F3, F4, F5, F9, F625]))
def test_subspace_matches_reference_gauss_jordan(data, F):
    n = data.draw(st.integers(1, 7))
    vecs = data.draw(vectors(F, n))
    probes = data.draw(vectors(F, n))
    S, R = Subspace(F, n), RefEchelon(F, n)
    for v in vecs:
        assert S.insert(v) == R.insert(v)
    assert S.pivots() == sorted(R.rows)
    assert S.basis() == [R.rows[l] for l in sorted(R.rows)]
    for v in vecs + probes:
        assert S.residue(v) == R.residue(v)
        assert S.contains(v) == (not any(R.residue(v)))


@pytest.mark.parametrize("F", [F3, F5, F9, F625], ids=lambda F: F.name)
def test_list_copy_survives_back_substitution(F):
    # the new pivot 0 back-substitutes into the stored row [1, 1, 0],
    # first in the copy and then in the original
    S = subspace_from(F, 3, [[1, 1, 0]])
    T = S.copy()
    assert T.insert([1, 0, 0])
    assert T.basis() == [[1, 0, 0], [0, 1, 0]]
    assert S.basis() == [[1, 1, 0]]
    assert S.residue([1, 0, 0]) == [1, 0, 0]
    U = S.copy()
    assert S.insert([1, 0, 0])
    assert U.basis() == [[1, 1, 0]]


@pytest.mark.parametrize("F", [F3, F5, F9, F625], ids=lambda F: F.name)
def test_list_path_leaves_caller_vectors_alone(F):
    S = subspace_from(F, 3, [[1, 1, 0]])
    v = [2, 1, 1]
    S.insert(v)
    w = [1, 2, 0]
    S.residue(w)
    S.contains(w)
    assert v == [2, 1, 1] and w == [1, 2, 0]


def _bits(min_size, max_size):
    return st.binary(min_size=min_size, max_size=max_size).map(
        lambda b: [x & 1 for x in b])


@settings(max_examples=200, deadline=None)
@given(vec=st.one_of(_bits(0, 80), _bits(1000, 1100)))
def test_pack_is_the_bitwise_mask_and_unpack_inverts_it(vec):
    mask = _pack(vec)
    assert mask == sum(1 << i for i, c in enumerate(vec) if c)
    assert _unpack(mask, len(vec)) == vec


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.one_of(st.integers(0, 80), st.integers(1000, 1100)))
def test_unpack_reads_the_low_bits_and_pack_inverts_it(data, n):
    mask = data.draw(st.integers(0, (1 << n) - 1))
    vec = _unpack(mask, n)
    assert vec == [(mask >> i) & 1 for i in range(n)]
    assert _pack(vec) == mask
