"""The pruned morphism search and the ideal-lattice subgroup walk against
exhaustive oracles: the same lists, in the same order."""

import itertools

import pytest

from gsl import BadParams, Field
from gsl.hopf import (HopfIdeal, Morphism, _is_onto,
                      enumerate_morphisms, enumerate_subgroups,
                      find_isomorphism, hopf_product, kernel_subgroup,
                      morphism_check, primitive_elements)
from gsl.linalg import _pack, subspace_from
from gsl.talg import Poly, _mono_images
from gsl.zoo import (D, H, SL2_kerF, alpha, cocycle_ext,
                     enumerate_coactions, group_coaction_verify, mu,
                     sl2_hom_enumerate, zoo_parse)

F2 = Field(2)
F3 = Field(3)
F4 = Field(2, 2)


# -- oracles -----------------------------------------------------------------

def dense_bijective(f):
    """Whether f is bijective by the rank of its dense matrix, whose
    columns are the images of A(f.source)'s basis monomials."""
    A, B = f.source.carrier, f.target.carrier
    image = _mono_images(A, f.images, B)
    cols = [B.to_vector(Poly(B, image(m))) for m in A.basis_monomials()]
    return A.dim == B.dim == subspace_from(f.source.field, B.dim, cols).dim


def exhaustive_morphisms(H1, H2, shape=None, iso_only=False):
    """Every candidate assignment, each certified by morphism_check."""
    A1, A2 = H1.carrier, H2.carrier
    F = H1.field
    if shape is None:
        aug = [A2.from_vector(v) for v in H2.aug_subspace().basis()]
        shape = {nm: aug for nm in A1.vars}
    names = list(A1.vars)
    out = []

    def combos(basis):
        if not basis:
            yield A2.zero()
            return
        head, tail = basis[0], basis[1:]
        for rest in combos(tail):
            yield rest
            for c in range(1, F.q):
                yield rest + head * A2.scalar(c)

    def rec(k, images):
        if k == len(names):
            f = Morphism(H1, H2, dict(images))
            if morphism_check(f)["ok"]:
                if not iso_only or dense_bijective(f):
                    out.append(f)
            return
        base = A2.scalar(H1.counit[names[k]])
        for el in combos(shape[names[k]]):
            images[names[k]] = base + el
            rec(k + 1, images)
        images.pop(names[k], None)

    rec(0, {})
    return out


def exhaustive_subgroups(H):
    """Every subspace of the augmentation ideal of a GF(2) carrier with nil
    generators, one reduced echelon basis each, tested with int masks."""
    A = H.carrier
    n = A.dim
    one_pos = A._positions()[next(iter(A.one().d))]
    aug_positions = [i for i in range(n) if i != one_pos]
    m = len(aug_positions)
    monos = A.basis_monomials()
    mul_mats = [[_pack(A.to_vector(A.var(nm) * A.poly({mono: 1})))
                 for mono in monos] for nm in A.vars]
    s_mat = [_pack(A.to_vector(H.antipode_map(A.poly({mono: 1}))))
             for mono in monos]
    split, pos = H.t2().split_mono, A._positions()
    tab = [{tuple(pos[leg] for leg in split(mono)): c
            for mono, c in H.delta_mono(m).items()} for m in monos]

    def spread(mask):
        return sum(1 << p for k, p in enumerate(aug_positions)
                   if (mask >> k) & 1)

    def apply_mask_matrix(mat, vmask):
        out = 0
        for i, row in enumerate(mat):
            if (vmask >> i) & 1:
                out ^= row
        return out

    def coideal(V, vmask):
        rows = {}
        for i in range(n):
            if (vmask >> i) & 1:
                for (a, b), c in tab[i].items():
                    if c:
                        rows[a] = rows.get(a, 0) ^ (1 << b)
        cols = {}
        for a, row in rows.items():
            r = V.residue(row)
            for j in range(n):
                if (r >> j) & 1:
                    cols[j] = cols.get(j, 0) ^ (1 << a)
        return all(V.contains(col) for col in cols.values())

    def echelon_bases():
        # largest-index pivots, free entries below each pivot; ordered by
        # pivot set, then by free entries
        for pivots in range(1 << m):
            plist = [i for i in range(m) if (pivots >> i) & 1]
            free = [(l, j) for l in plist for j in range(l)
                    if not (pivots >> j) & 1]
            for assign in range(1 << len(free)):
                rows = {l: 1 << l for l in plist}
                for t, (l, j) in enumerate(free):
                    if (assign >> t) & 1:
                        rows[l] |= 1 << j
                yield [rows[l] for l in plist]

    out = []
    for rows in echelon_bases():
        masks = [spread(r) for r in rows]
        V = subspace_from(H.field, n, masks)
        if all(all(V.contains(apply_mask_matrix(mat, v)) for mat in mul_mats)
               and V.contains(apply_mask_matrix(s_mat, v))
               and coideal(V, v) for v in masks):
            out.append(HopfIdeal(H, V))
    return out


def exhaustive_coactions(G, M):
    """Every candidate x + (aug(G) x aug(M) terms) of a one-generator G,
    cell 0 the fastest digit, each through the public verifier."""
    AG, AM = G.carrier, M.carrier
    t2 = AG.tensor(AM)
    (nm,) = AG.vars
    cells = [t2.embed(AG.poly({mg: 1}), 0) * t2.embed(AM.poly({mm: 1}), 1)
             for mg in AG.basis_monomials() if AG.degree(mg)
             for mm in AM.basis_monomials() if AM.degree(mm)]
    out = []
    for digits in itertools.product(list(G.field.elements()),
                                    repeat=len(cells)):
        rho = t2.embed(AG.var(nm), 0)
        for s, cell in zip(reversed(digits), cells):
            rho = rho + cell * t2.scalar(s)
        if group_coaction_verify(G, M, {nm: rho})["ok"]:
            out.append(rho)
    return out


def images(homs):
    return [f.images for f in homs]


def bases(ideals):
    return [i.subspace.basis() for i in ideals]


# -- morphisms ---------------------------------------------------------------

MORPHISM_CASES = {
    "alpha2-alpha2": lambda: (alpha(2, F2), alpha(2, F2)),
    "alpha1-alpha1-GF4": lambda: (alpha(1, F4), alpha(1, F4)),
    "mu1-alpha1": lambda: (mu(1, F2), alpha(1, F2)),
    "SL2_kerF1-alpha1-GF2": lambda: (SL2_kerF(1, F2), alpha(1, F2)),
    "SL2_kerF1-alpha1-GF4": lambda: (SL2_kerF(1, F4), alpha(1, F4)),
    "SL2_kerF1-alpha1-GF3": lambda: (SL2_kerF(1, F3), alpha(1, F3)),
    "D1-alpha1xalpha1": lambda: (D(1), hopf_product(alpha(1), alpha(1))),
}


@pytest.mark.parametrize("case", sorted(MORPHISM_CASES))
def test_pruned_morphisms_match_exhaustive(case):
    H1, H2 = MORPHISM_CASES[case]()
    want = exhaustive_morphisms(H1, H2)
    assert want
    assert images(enumerate_morphisms(H1, H2)) == images(want)
    isos = [f for f in want if dense_bijective(f)]
    assert images(enumerate_morphisms(H1, H2, iso_only=True)) == images(isos)
    first = find_isomorphism(H1, H2)
    if isos:
        assert first.images == isos[0].images
    else:
        assert first is None
    # onto exactly when the kernel of the group map is trivial
    assert all(_is_onto(f) == (kernel_subgroup(f).dim == 1) for f in want)


@pytest.mark.parametrize("n", [1, 2])
def test_pruned_morphisms_match_exhaustive_with_shape(n):
    # the primitive-base shape that cocycle_check searches
    E, target = cocycle_ext(1, n, F2), H(1, n, F2)
    AH = target.carrier
    shape = {"T": primitive_elements(target),
             "T2": [AH.poly({m: 1}) for m in AH.basis_monomials()
                    if AH.degree(m)]}
    want = exhaustive_morphisms(E, target, shape=shape)
    assert want
    assert images(enumerate_morphisms(E, target, shape=shape)) == images(want)


def test_shape_must_be_on_the_generators():
    with pytest.raises(BadParams, match="'T'"):
        enumerate_morphisms(alpha(1), alpha(1), shape={})
    with pytest.raises(BadParams, match="'S'"):
        enumerate_morphisms(alpha(1), alpha(1), shape={"T": [], "S": []})


def test_maps_between_fields_are_refused():
    # GF(3) codes such as 2 are no GF(2) codes, so such a map reads wrong
    src, tgt = alpha(1, F3), alpha(2, F2)
    with pytest.raises(BadParams, match="^source and target fields differ$"):
        Morphism(src, tgt, {"T": tgt.carrier.var("T") ** 2})
    for search in (enumerate_morphisms, find_isomorphism):
        with pytest.raises(BadParams,
                           match="^source and target fields differ$"):
            search(src, tgt)
    # GF(4) is no GF(2) either, though their codes 0 and 1 agree
    with pytest.raises(BadParams, match="fields differ"):
        enumerate_morphisms(alpha(1, F2), alpha(1, F4))


def test_find_isomorphism_none_matches_exhaustive():
    assert not exhaustive_morphisms(alpha(2), alpha(1), iso_only=True)
    assert find_isomorphism(alpha(2), alpha(1)) is None


# -- subgroups ---------------------------------------------------------------

SUBGROUP_CASES = {
    "D1": (lambda: D(1), 5),
    "D2": (lambda: D(2), 8),
    "alpha3": (lambda: zoo_parse("alpha(3)", F2), 4),
    "H13": (lambda: zoo_parse("H(1,3)", F2), 4),
    "alpha1xalpha1": (lambda: hopf_product(alpha(1), alpha(1)), 5),
}


@pytest.mark.parametrize("case", sorted(SUBGROUP_CASES))
def test_ideal_walk_matches_all_subspaces(case):
    build, count = SUBGROUP_CASES[case]
    G = build()
    found = enumerate_subgroups(G)
    assert bases(found) == bases(exhaustive_subgroups(G))
    assert len(found) == count
    assert all(i.verify()["ok"] for i in found)


# -- coactions ----------------------------------------------------------------

COACTION_CASES = {
    "alpha2-mu1-GF2": lambda: (alpha(2, F2), mu(1, F2)),
    "alpha2-mu1-GF4": lambda: (alpha(2, F4), mu(1, F4)),
    "H12-mu1-GF2": lambda: (H(1, 2, F2), mu(1, F2)),
    "H12-mu1-GF4": lambda: (H(1, 2, F4), mu(1, F4)),
    "alpha1-mu1-GF3": lambda: (alpha(1, F3), mu(1, F3)),
}


@pytest.mark.parametrize("case", sorted(COACTION_CASES))
def test_coaction_search_matches_the_public_verifier(case):
    G, M = COACTION_CASES[case]()
    want = exhaustive_coactions(G, M)
    assert want
    assert [r.d for r in enumerate_coactions(G, M)] == [r.d for r in want]


# -- pins that only the benchmark held ---------------------------------------

def test_sl2_homs_over_gf4():
    assert len(sl2_hom_enumerate(1, F4)) == 16


def test_sl2_homs_over_gf3():
    homs = sl2_hom_enumerate(1, F3)
    assert len(homs) == 9
    nontrivial = [h for h in homs if not h["trivial"]]
    assert len(nontrivial) == 8
    for h in nontrivial:
        assert h["factored"] and h["f_additive"]
        assert h["B_trace"] == 0 and h["B_det"] == 0
