"""Echelon-form subspaces of k^n over a small finite field.

Subspace is the one echelon engine of the library.  Coordinates over
vectors v_j are read off one Subspace of the augmented rows e_j | v_j:
the residue of 0 | v is -c | 0 exactly when v = sum c_j v_j (a nonzero
high block means v is not in their span).  The relations half of that
pattern, the rows with a zero high block, is ``column_kernel``: it
echelonises the equations on the k coefficients instead, one per
coordinate met, so nothing wider than k is laid out.

A Subspace keeps a reduced row echelon basis, pivoting on the *largest*
nonzero coordinate of each row.  That convention matches the monomial
enumeration used by the ring layer (index 0 is the monomial 1), so the
canonical residue of a vector modulo an ideal is supported on the small
monomials and quotient bases come out as the familiar staircase of low
monomials.

Over GF(2) a row is stored as an int bitmask of its tail, the row less
its pivot bit, so the rows of an ideal with a small quotient stay small,
and reduction is pure xor; over larger fields rows are dense lists of
scalar codes with the leading coefficient normalised to 1, each kept with
the list of its nonzero indices (its support), and every row operation is
one `Field.axpy` over a support.
"""

from itertools import compress


class Subspace(object):

    def __init__(self, field, n):
        self.field = field
        self.n = n
        self._rows = {}  # leading index -> row tail mask if q == 2, else row list
        self._supp = {}  # leading index -> nonzero indices of a list row
        self._binary = field.q == 2
        # binary rows may be left unreduced against later pivots until a
        # reduced basis is actually read; residues stay canonical either way
        self._dirty = False

    @property
    def dim(self):
        return len(self._rows)

    def copy(self):
        other = Subspace(self.field, self.n)
        if self._binary:
            other._rows = dict(self._rows)
            other._dirty = self._dirty
        else:
            other._rows = {l: list(r) for l, r in self._rows.items()}
            other._supp = dict(self._supp)
        return other

    # -- reduction ---------------------------------------------------------

    def _reduce_mask(self, mask):
        rows = self._rows
        out = 0
        while mask:
            l = mask.bit_length() - 1
            bit = 1 << l
            mask ^= bit
            tail = rows.get(l)
            if tail is None:
                out |= bit
            else:
                mask ^= tail
        return out

    def _reduce_list(self, vec):
        """vec reduced modulo the rows, and its ascending support."""
        # the rows are fully reduced: clearing one pivot touches no other
        # pivot column, so the pivots to clear are read off the input and
        # cleared in any order
        F = self.field
        rows, supp = self._rows, self._supp
        vec = list(vec)
        support = set(compress(range(len(vec)), vec))
        for l in rows.keys() & support:
            F.axpy(vec, F.neg(vec[l]), rows[l], supp[l])
            support.update(supp[l])
        return vec, sorted(i for i in support if vec[i])

    def residue(self, vec):
        """Canonical representative of vec modulo this subspace.

        Over GF(2) an int is taken as a packed mask and the residue
        comes back packed too.
        """
        if self._binary:
            if isinstance(vec, int):
                return self._reduce_mask(vec)
            return _unpack(self._reduce_mask(_pack(vec)), self.n)
        return self._reduce_list(vec)[0]

    def contains(self, vec):
        if self._binary:
            # stop at the first leading bit that no row can clear
            mask = vec if isinstance(vec, int) else _pack(vec)
            rows = self._rows
            while mask:
                l = mask.bit_length() - 1
                tail = rows.get(l)
                if tail is None:
                    return False
                mask ^= 1 << l
                mask ^= tail
            return True
        return not self._reduce_list(vec)[1]

    def insert(self, vec):
        """Add a vector to the span.  Returns True if the dimension grew."""
        if self._binary:
            mask = self._reduce_mask(vec if isinstance(vec, int) else _pack(vec))
            if mask == 0:
                return False
            l = mask.bit_length() - 1
            self._rows[l] = mask ^ (1 << l)
            self._dirty = True
            return True
        return self._insert_list(vec)

    def _inter_reduce(self):
        """Clear stale pivot bits out of the stored rows (binary only).

        Ascending pivot order: by the time row l is cleaned, every row it
        can borrow from carries nothing but its own pivot and free columns.
        """
        if not self._dirty:
            return
        rows = self._rows
        pmask = 0
        for l in rows:
            pmask |= 1 << l
        for l in sorted(rows):
            tail = rows[l]
            t = tail & pmask
            tail ^= t
            while t:
                b = t.bit_length() - 1
                tail ^= rows[b]
                t ^= 1 << b
            rows[l] = tail
        self._dirty = False

    def _insert_list(self, vec):
        F = self.field
        vec, support = self._reduce_list(vec)
        if not support:
            return False
        vec = _normalised(F, vec, support)
        l = support[-1]
        rows, supp = self._rows, self._supp
        for k in [k for k, row in rows.items() if row[l]]:
            row = rows[k]
            F.axpy(row, F.neg(row[l]), vec, support)
            supp[k] = [i for i in set(supp[k]).union(support) if row[i]]
        rows[l] = vec
        supp[l] = support
        return True

    # -- structure ----------------------------------------------------------

    def pivots(self):
        return sorted(self._rows)

    def complement_indices(self):
        """Indices of the monomials spanning a complement (the non-pivots)."""
        return [j for j in range(self.n) if j not in self._rows]

    def basis(self):
        """Echelon basis rows as dense lists, ordered by leading index."""
        if self._binary:
            self._inter_reduce()
        out = []
        for l in sorted(self._rows):
            row = self._rows[l]
            out.append(_unpack(row | 1 << l, self.n) if self._binary
                       else list(row))
        return out

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.n}, {self.field.name})"


def subspace_from(field, n, vectors):
    S = Subspace(field, n)
    for v in vectors:
        S.insert(v)
    return S


def column_kernel(field, columns):
    """The relations {c : sum_j c_j columns[j] = 0} among k columns, each
    a sparse {key: code} over any hashable keys: the right kernel of the
    matrix with these columns, as the reduced echelon basis that
    ``Subspace.basis()`` would list.

    One equation is collected per key met and inserted into one Subspace
    of width k, with unknown j at position k - 1 - j.  Its reduced rows
    then pivot on their smallest unknown, so the solution of each free
    unknown is already reduced and normalised for the largest-pivot
    convention.
    """
    k = len(columns)
    eqs = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            if c:
                eqs.setdefault(key, {})[k - 1 - j] = c
    S = Subspace(field, k)
    for eq in eqs.values():
        if S._binary:
            S.insert(sum(1 << i for i in eq))
            continue
        row = [0] * k
        for i, c in eq.items():
            row[i] = c
        S.insert(row)
    rows = dict(zip(S.pivots(), S.basis()))
    out = []
    for i in reversed(S.complement_indices()):
        vec = [0] * k
        vec[k - 1 - i] = 1
        for l, row in rows.items():
            if row[i]:
                vec[k - 1 - l] = field.neg(row[i])
        out.append(vec)
    return out


def subspace_sum(A, B):
    assert A.field == B.field and A.n == B.n
    S = Subspace(A.field, A.n)
    for v in A.basis():
        S.insert(v)
    for v in B.basis():
        S.insert(v)
    return S


def subspace_intersect(A, B):
    """Zassenhaus: echelonise (a|a) and (b|0), read rows with zero top block."""
    assert A.field == B.field and A.n == B.n
    n = A.n
    big = Subspace(A.field, 2 * n)
    for a in A.basis():
        big.insert(a + a)
    for b in B.basis():
        big.insert([0] * n + b)
    out = Subspace(A.field, n)
    for l in big.pivots():
        if l < n:
            row = big._rows[l]
            out.insert(_unpack(row | 1 << l, n) if big._binary else row[:n])
    return out


# byte tables between 0/1 entries and the digits of a binary string
_TO_DIGIT = bytes(48 if b == 0 else 49 for b in range(256))
_FROM_DIGIT = bytes(b - 48 if b in (48, 49) else 0 for b in range(256))


def _pack(vec):
    """The mask with bit i set where vec[i] is nonzero (entries < 256)."""
    return int(bytes(vec).translate(_TO_DIGIT)[::-1] or b"0", 2)


def _unpack(mask, n):
    """The low n bits of mask as a 0/1 list, bit i at position i."""
    return list(format(mask, "0%db" % n).encode()[::-1][:n]
                .translate(_FROM_DIGIT))


def _normalised(F, vec, support):
    """vec scaled to leading coefficient 1, given its nonempty ascending
    support."""
    c = F.inv(vec[support[-1]])
    if c == 1:
        return vec
    out = [0] * len(vec)
    F.axpy(out, c, vec, support)
    return out
