"""Structural invariants of the Frobenius kernels of SL2 and PGL2 over
p = 2, 3, 5 and m = 1, 2 (Jantzen, Representations of Algebraic Groups,
I.9; Demazure & Gabriel, Groupes algebriques, II sec. 7), and of the
quotient by a normal subgroup on the catalogue groups."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from gsl import Field, frobenius_image, frobenius_kernel, lie_algebra
from gsl.hopf import closed_subgroup, hopf_ideal_closure, quotient_group
from gsl.zoo import zoo_parse

CASES = [(F, n) for F, top in ((Field(2), 3), (Field(2, 2), 2), (Field(3), 2),
                               (Field(3, 2), 1), (Field(5), 1))
         for n in range(1, top + 1)]


@pytest.mark.parametrize("group", ["SL2_kerF", "PGL2_kerF"])
@pytest.mark.parametrize("F,n", CASES,
                         ids=lambda x: x.name if isinstance(x, Field) else x)
def test_frobenius_splits_and_kernel_has_the_lie_dimension(F, n, group):
    G = zoo_parse("%s(%d)" % (group, n), F)
    assert G.dim == F.p ** (3 * n)
    # dim A(G) = dim A(ker F^r) * dim A(im F^r) for every r up to the height
    for r in range(1, n + 1):
        K, I = frobenius_kernel(G, r), frobenius_image(G, r)
        assert G.dim == K.dim * I.dim
        assert K.dim == F.p ** (3 * r)
    # the first kernel has height one: dim p^(dim Lie G)
    assert frobenius_kernel(G).dim == F.p ** len(lie_algebra(G)[0])


NORMAL_CASES = ([(Field(3), cid) for cid in ("D(2)", "alpha(2)", "H(1,2)",
                                             "mu(2)")]
                + [(Field(5), "alpha(2)"), (Field(3, 2), "D(2)"),
                   (Field(2, 2), "pullback(1,1,1)")]
                + [(Field(2), cid) for cid in ("D(3,A)", "witt2",
                                               "cocycle_ext(a=1,n=3)")])


@pytest.mark.parametrize("F,cid", NORMAL_CASES,
                         ids=lambda x: x.name if isinstance(x, Field) else x)
def test_group_order_is_normal_subgroup_times_quotient(F, cid):
    # N = ker F, cut out by (x - eps(x))^p; |G| = |N| |G/N| (Waterhouse,
    # ch. 15-16), and G/N is the Frobenius image
    G = zoo_parse(cid, F)
    A = G.carrier
    seeds = [(A.var(nm) - A.scalar(G.counit[nm])) ** F.p for nm in A.vars]
    ideal = hopf_ideal_closure(G, seeds)
    n_dim = G.dim - ideal.dim
    assert n_dim == frobenius_kernel(G).dim
    Q = quotient_group(G, ideal)
    assert Q.dim * n_dim == G.dim
    assert Q.dim == frobenius_image(G).dim


def _frobenius_equations(G):
    """(x - eps(x))^p over the generators x: they cut out ker F."""
    A = G.carrier
    return [(A.var(nm) - A.scalar(G.counit[nm])) ** G.field.p
            for nm in A.vars]


@pytest.mark.parametrize("F,cid", NORMAL_CASES,
                         ids=lambda x: x.name if isinstance(x, Field) else x)
def test_kernel_subgroup_agrees_with_closed_subgroup(F, cid):
    # ker F by kernel_subgroup of the Frobenius morphism, and the closed
    # subgroup its equations cut out, have one dimension
    G = zoo_parse(cid, F)
    K = closed_subgroup(G, _frobenius_equations(G))
    assert K.dim == frobenius_kernel(G).dim < G.dim


@pytest.mark.parametrize("F,cid", NORMAL_CASES,
                         ids=lambda x: x.name if isinstance(x, Field) else x)
def test_hopf_ideal_closure_is_idempotent(F, cid):
    # closing a Hopf ideal's own basis adds nothing
    G = zoo_parse(cid, F)
    ideal = hopf_ideal_closure(G, _frobenius_equations(G))
    again = hopf_ideal_closure(G, ideal.basis_polys())
    assert again.subspace.basis() == ideal.subspace.basis()
    assert ideal.verify()["ok"]


@functools.lru_cache(maxsize=None)
def _carrier_and_aug(F, cid):
    G = zoo_parse(cid, F)
    return G, [G.carrier.from_vector(v) for v in G.aug_subspace().basis()]


@pytest.mark.parametrize("F,cid", NORMAL_CASES,
                         ids=lambda x: x.name if isinstance(x, Field) else x)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_closed_subgroups_satisfy_lagrange(F, cid, data):
    # the Hopf ideal closure of a few augmentation elements stays in the
    # augmentation ideal and cuts out a closed subgroup K, and |K|
    # divides |G| (Nichols & Zoeller 1989); the ideal's generators cut
    # out the same K through closed_subgroup
    G, aug = _carrier_and_aug(F, cid)
    A = G.carrier
    seeds = []
    for _ in range(data.draw(st.integers(1, 2))):
        terms = data.draw(st.lists(st.tuples(
            st.sampled_from(aug), st.integers(1, F.q - 1)), min_size=1,
            max_size=3))
        seeds.append(sum((f * A.scalar(c) for f, c in terms), A.zero()))
    ideal = hopf_ideal_closure(G, seeds)
    k_dim = G.dim - ideal.dim
    assert k_dim >= 1 and G.dim % k_dim == 0
    assert closed_subgroup(G, ideal._quotient()[2]).dim == k_dim
