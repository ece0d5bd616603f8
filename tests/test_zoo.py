import itertools
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from gsl import (Algebra, BadParams, Field, NotAnAction, ParseError,
                 SizeGuard, VerifyError, Morphism, talg)
from gsl.hopf import (closed_subgroup, enumerate_morphisms,
                      enumerate_subgroups, find_isomorphism, frobenius,
                      frobenius_image, frobenius_kernel, hopf_ideal_closure,
                      hopf_product, hopf_verify, image_subgroup,
                      is_central, is_cocommutative, kernel_subgroup,
                      lie_algebra, morphism_check, presentations_equal,
                      quotient_group, tangent_map)
from gsl.action import (MobiusMatrix, lifts_to_sl2, pgl2_morphism,
                        sl2_to_pgl2)
from gsl.linalg import Subspace
from gsl.talg import DIM_LIMIT, invert_unit
from gsl.zoo import (D, H, H_unip, PGL2_kerF, SL2_kerF, alpha,
                     cocycle_check, cocycle_ext, d_presentation_iso,
                     enumerate_coactions, group_coaction_verify, h_iso_map,
                     kerFV, mu, mu2_invariants_D, mu_action_normalize,
                     pullback, semidirect, sl2_hom_enumerate,
                     unipotent_line_hom, witt2, zoo_parse)

F2 = Field(2)
F3 = Field(3)
F4 = Field(2, 2)
F16 = Field(2, 4)


# -- constructors --------------------------------------------------------

def test_alpha_dims_and_axioms():
    for n in range(1, 5):
        a = alpha(n)
        assert a.carrier.dim == 2 ** n
        assert hopf_verify(a)["ok"]
        assert is_cocommutative(a)
    a = alpha(2, F3)
    assert a.carrier.dim == 9 and hopf_verify(a)["ok"]


def test_mu_dims_and_axioms():
    for l in (1, 2):
        m = mu(l)
        assert m.carrier.dim == 2 ** l
        assert hopf_verify(m)["ok"]
    m = mu(1, F3)
    assert m.carrier.dim == 3 and hopf_verify(m)["ok"]


def test_D_both_presentations():
    for n in range(4):
        for pres in ("A", "B"):
            Dn = D(n, pres)
            assert Dn.carrier.dim == 2 ** (n + 1)
            assert hopf_verify(Dn)["ok"]
    # presentation B carries the twist on the other leg
    Db = D(2, "B")
    t2 = Db.t2()
    assert Db.delta["T"] == (t2.var("T") + t2.var("T'")
                             + t2.var("T") ** 2 * t2.var("S'"))


def test_D_cocommutativity():
    assert is_cocommutative(D(1))
    assert not is_cocommutative(D(2))
    assert not is_cocommutative(D(3))


def test_H_dims_axioms_and_antipode():
    for a in (0, 1):
        for n in (1, 2, 3):
            Hh = H(a, n)
            assert Hh.carrier.dim == 2 ** n
            assert hopf_verify(Hh)["ok"]
    # truncation keeps the tail alive for n >= 3, so the naive antipode
    # is wrong there and the antipode solver has to find the real one
    H13 = H(1, 3)
    A = H13.carrier
    assert H13.antipode["T"] == A.var("T") + A.var("T") ** 6
    for a in F4.elements():
        for n in (1, 2, 3):
            assert hopf_verify(H(a, n, F4))["ok"]


def test_H_cocommutative_iff_low_height_or_zero():
    for a in F4.elements():
        for n in range(1, 5):
            assert is_cocommutative(H(a, n, F4)) == (n <= 2 or a == 0)


def test_H_degenerate_presentations():
    for n in (1, 2, 3):
        assert presentations_equal(H(0, n), alpha(n))
    assert presentations_equal(H(1, 1), alpha(1))
    g = F4.gen
    assert presentations_equal(H(g, 1, F4), alpha(1, F4))


def test_witt2_and_kerFV():
    W = witt2()
    assert W.carrier.dim == 16
    assert hopf_verify(W)["ok"]
    K = kerFV()
    assert K.carrier.dim == 4
    assert presentations_equal(K, H(1, 2))
    W3 = witt2(F3)
    assert W3.carrier.dim == 81 and hopf_verify(W3)["ok"]
    assert kerFV(F3).carrier.dim == 9


def test_cocycle_ext_dims_and_axioms():
    for a in (0, 1):
        for n in (1, 2, 3):
            E = cocycle_ext(a, n)
            assert E.carrier.dim == 4 ** n
            assert hopf_verify(E)["ok"]


def test_SL2_kerF_dims_and_axioms():
    for n, dim in [(1, 8), (2, 64)]:
        G = SL2_kerF(n)
        assert G.carrier.dim == dim
        assert hopf_verify(G)["ok"]


def test_sl2_and_pgl2_kernels_build_no_quotient(monkeypatch):
    # both are free charts: no Groebner basis, no QuotientAlgebra
    def refuse(*args, **kwargs):
        raise AssertionError("a quotient was built")

    monkeypatch.setattr(talg, "_groebner", refuse)
    monkeypatch.setattr(talg.QuotientAlgebra, "__init__", refuse)
    for build in (SL2_kerF, PGL2_kerF):
        G = build(2, F3)
        assert type(G.carrier) is Algebra and G.dim == 729
        assert hopf_verify(G)["ok"]


@pytest.mark.parametrize("F,n,dim", [
    (F2, 1, 8), (F2, 2, 64), (F2, 3, 512), (F4, 1, 8), (F3, 1, 27),
    (F3, 2, 729), (Field(5), 1, 125)],
    ids=lambda x: x.name if isinstance(x, Field) else str(x))
def test_pgl2_kernels_verify(F, n, dim):
    G = zoo_parse("PGL2_kerF(%d)" % n, F)
    assert G.carrier.vars == ("a", "b", "c") and G.dim == dim
    assert hopf_verify(G)["ok"]
    assert len(lie_algebra(G)[0]) == 3


@pytest.mark.parametrize("F,dims", [
    (F2, {1: (2, 4), 2: (2, 32)}), (F4, {1: (2, 4)}), (F3, {1: (1, 27)}),
    (Field(5), {1: (1, 125)}), (Field(3, 2), {1: (1, 27)})],
    ids=lambda x: x.name if isinstance(x, Field) else "")
def test_sl2_maps_onto_pgl2_with_central_kernel(F, dims):
    # pi_n: SL2_kerF(n) -> PGL2_kerF(n); its kernel is mu2 in
    # characteristic 2 and trivial otherwise.  dims maps n to
    # (dim ker pi_n, dim im pi_n)
    for n, want in dims.items():
        pi = sl2_to_pgl2(n, F)
        assert morphism_check(pi)["ok"]
        K, I = kernel_subgroup(pi), image_subgroup(pi)
        assert (K.dim, I.dim) == want
        assert K.dim * I.dim == pi.target.dim


@pytest.mark.parametrize("F,pgl2,lifts,sl2", [
    (F2, [1, 7, 7, 1], [1, 3, 0, 0], [1, 4, 3, 1]),
    (F4, [1, 21, 21, 1], [1, 5, 0, 0], [1, 6, 5, 1]),
    (F3, [1, 13, 4, 1], [1, 13, 4, 1], [1, 13, 4, 1]),
    (Field(5), [1, 31, 6, 1], [1, 31, 6, 1], [1, 31, 6, 1]),
    (Field(3, 2), [1, 91, 10, 1], [1, 91, 10, 1], [1, 91, 10, 1])],
    ids=lambda x: x.name if isinstance(x, Field) else "")
def test_height_one_lift_table(F, pgl2, lifts, sl2):
    # restricted subalgebras of pgl2 and sl2 by dimension, and those of
    # pgl2 that d pi_n maps some subalgebra of sl2 isomorphically onto:
    # all of them in odd characteristic, where pi_n is an isomorphism,
    # and no plane in characteristic 2.  Lie(PGL2_kerF(n)) is the same
    # for every n, and so is the table
    def by_dim(spaces):
        return [sum(1 for h in spaces if h.dim == d) for d in range(4)]

    for n in (1, 2) if F.q in (3, 5) else (1,):
        rep = lifts_to_sl2(n, F)
        downs = [e["subalgebra"] for e in rep["entries"]]
        assert by_dim(downs) == pgl2 and by_dim(rep["sl2"]) == sl2
        assert by_dim([e["subalgebra"] for e in rep["entries"]
                       if e["lift"] is not None]) == lifts
        assert rep.get("pi_bijective") is (True if F.p > 2 else None)
    if F.q in (2, 4):
        # a height-one subgroup of order p^d is one subalgebra of dim d
        G = SL2_kerF(1, F)
        for H, want in ((G, sl2), (PGL2_kerF(1, F), pgl2)):
            got = Counter(H.dim - I.dim for I in enumerate_subgroups(H))
            assert [got[2 ** d] for d in range(4)] == want


def test_H_unip_dims_and_axioms():
    for n in (1, 2):
        for s1, s2 in [(1, 0), (0, 1), (1, 1)]:
            G = H_unip(s1, s2, n)
            assert G.carrier.dim == 2 ** n
            assert hopf_verify(G)["ok"]
    with pytest.raises(BadParams):
        H_unip(0, 0, 1)


def test_pullback_dims_and_axioms():
    for n in (1, 2):
        for s1, s2 in [(1, 0), (0, 1), (1, 1)]:
            G = pullback(s1, s2, n)
            assert G.carrier.dim == 2 ** (n + 3)
            assert hopf_verify(G)["ok"]


def test_pi_on_pullback_is_mu2_invariants_and_obeys_the_chain_rule():
    # P = pullback(s1, s2, n) lies in SL2_kerF(n + 1) by incl, and pi|P
    # is the pgl2_morphism of its matrix.  The subalgebra of A(P) that
    # pi|P's images generate is A(P)^mu2, generated by Y1 = X11 X12 and
    # Y2 = X21 X22: equal spans, no search.  X11 and X22 have counit 1,
    # and d(pi|P) = d pi_(n+1) o d incl on Lie(P)
    for n in (1, 2):
        dpi = tangent_map(sl2_to_pgl2(n + 1))
        for s1, s2 in [(1, 0), (0, 1), (1, 1)]:
            P = pullback(s1, s2, n)
            A = P.carrier
            X11, X12, X21, X22 = A.gens()
            pi_P = pgl2_morphism(MobiusMatrix(P, ((X11, X12), (X21, X22))),
                                 n + 1)
            image = talg.subalgebra_generated(A, list(pi_P.images.values()))
            fixed = talg.subalgebra_generated(A, [X11 * X12, X21 * X22])
            assert image.dim == 2 ** (n + 2)
            assert image.basis() == fixed.basis()
            incl = Morphism(SL2_kerF(n + 1), P,
                            {"u11": X11 - 1, "u12": X12, "u21": X21})
            assert morphism_check(incl)["ok"]
            dincl, dpi_P = tangent_map(incl), tangent_map(pi_P)
            basis = lie_algebra(P)[0]
            assert basis
            for u in basis:
                assert dpi_P(u) == dpi(dincl(u))


def test_semidirect_pinned_coproducts():
    G = semidirect(D(2), mu(1), {"S": -1, "T": 1})
    assert G.carrier.dim == 16
    t2 = G.t2()
    W = t2.one() + t2.var("U")
    Winv = invert_unit(W)
    assert G.delta["S"] == t2.var("S") + Winv * t2.var("S'")
    assert G.delta["T"] == (t2.var("T") + W * t2.var("T'")
                            + t2.var("S") * W ** 2 * t2.var("T'") ** 2)
    assert G.delta["U"] == (t2.var("U") + t2.var("U'")
                            + t2.var("U") * t2.var("U'"))


def test_semidirect_grid_and_guards():
    for n in (1, 2, 3):
        for l in (1, 2):
            G = semidirect(D(n), mu(l), {"S": -1, "T": 1})
            assert G.carrier.dim == 2 ** (n + 1 + l)
    with pytest.raises(BadParams):
        semidirect(D(1), mu(1), {"S": -1})
    with pytest.raises(BadParams):
        semidirect(mu(1), mu(1), {"U": 1})


def test_zoo_parse_round_trips():
    assert presentations_equal(zoo_parse("alpha(2)"), alpha(2))
    assert presentations_equal(zoo_parse("D(2,B)"), D(2, "B"))
    assert presentations_equal(zoo_parse("H(g,2)", F4), H(F4.gen, 2, F4))
    assert presentations_equal(zoo_parse("kerFV()"), kerFV())
    g = zoo_parse("Hunip(s1=1,s2=0,n=2)")
    # subgroup carriers keep redundant coordinates, so compare up to iso
    assert g.carrier.dim == 4
    assert find_isomorphism(g, H_unip(1, 0, 2)) is not None
    g = zoo_parse("semidirect(D(2),mu(1),w=[-1,1])")
    assert presentations_equal(g, semidirect(D(2), mu(1), {"S": -1, "T": 1}))
    with pytest.raises(ParseError):
        zoo_parse("nosuch(1)")


@pytest.mark.parametrize("cid,message", [
    ("SL2_kerF(1", "unbalanced parentheses in 'SL2_kerF(1'"),
    ("alpha(1))", "unbalanced parentheses in 'alpha(1))'"),
    ("alpha((1)", "unbalanced parentheses in 'alpha((1)'"),
    ("alpha(1)(2)", "unbalanced parentheses in 'alpha(1)(2)'"),
    ("nosuch", "unknown catalogue id 'nosuch'"),
    ("semidirect(D(2),nosuch(1),w=[-1,1])", "unknown catalogue id 'nosuch'")])
def test_zoo_parse_syntax_errors_and_unknown_ids_raise_parse_error(cid,
                                                                   message):
    with pytest.raises(ParseError) as exc:
        zoo_parse(cid)
    assert str(exc.value) == message


@pytest.mark.parametrize("cid", ["alpha()", "alpha(x)", "H(a=1)",
                                 "H(g^x,2)", "pullback(1,0)", "D()",
                                 "semidirect(D(2),mu(1),w=[a,1])"])
def test_zoo_parse_malformed_ids_raise_bad_params(cid):
    with pytest.raises(BadParams, match="malformed catalogue id"):
        zoo_parse(cid)


@pytest.mark.parametrize("cid", ["alpha(2,7)", "mu(1,2)", "witt2(5)",
                                 "kerFV(1)", "D(1,A,zz)", "H(1,2,3)",
                                 "H(a=1,n=2,n=3)", "SL2_kerF(1,1)",
                                 "cocycle_ext(a=1,n=1,a=1)",
                                 "Hunip(s1=1,s2=0,n=2,n=2)"])
def test_zoo_parse_rejects_surplus_arguments(cid):
    with pytest.raises(BadParams, match=re.escape(repr(cid))):
        zoo_parse(cid)


@pytest.mark.parametrize("F,cid,kdim,idim", [
    (F2, "SL2_kerF(1)", 8, 1), (F2, "SL2_kerF(2)", 8, 8),
    (F2, "pullback(1,0,1)", 8, 2), (F2, "pullback(1,1,2)", 8, 4),
    (F4, "SL2_kerF(1)", 8, 1), (F4, "SL2_kerF(2)", 8, 8),
    (F4, "pullback(1,0,1)", 8, 2), (F4, "pullback(1,1,2)", 8, 4),
    (F3, "SL2_kerF(1)", 27, 1), (F2, "SL2_kerF(3)", 8, 64),
    (F3, "SL2_kerF(2)", 27, 27)],
    ids=lambda x: x.name if isinstance(x, Field) else str(x))
def test_frobenius_splits_the_sl2_family(F, cid, kdim, idim):
    # dim A(G) = dim A(ker F) * dim A(im F); the twist of a carrier built
    # without elimination used to lose a variable and raise VerifyError
    G = zoo_parse(cid, F)
    K, I = frobenius_kernel(G), frobenius_image(G)
    assert (K.dim, I.dim) == (kdim, idim)
    assert G.dim == K.dim * I.dim


@pytest.mark.parametrize("F,cid,fixed", [
    (F3, "SL2_kerF(1)", True), (F4, "pullback(1,1,1)", True),
    (F4, "pullback(2,1,1)", False)],
    ids=lambda x: x.name if isinstance(x, Field) else str(x))
def test_frobenius_twists_the_carrier_only_when_a_relation_moves(F, cid, fixed):
    # the twist fixes every relation over GF(p) and on GF(2)-rational
    # lines, and then keeps the carrier instead of closing its ideal again
    G = zoo_parse(cid, F)
    fr = frobenius(G)
    assert (fr.source.carrier is G.carrier) == fixed
    assert morphism_check(fr)["ok"]


def _box(bounds):
    """Monomials with e_i < bounds[i], in index order (first variable fastest)."""
    return [tuple(reversed(m))
            for m in itertools.product(*[range(b) for b in reversed(bounds)])]


@pytest.mark.parametrize("cid,box,top_var,all_vars", [
    ("pullback(1,0,2)", (2, 8, 2, 1), "X11 + X11*X12*X21", "X12*X21"),
    ("pullback(0,1,2)", (2, 2, 8, 1), "X11 + X11*X12*X21", "X12*X21"),
    ("pullback(1,1,2)", (8, 2, 2, 1), "X11^7 + X11^7*X12*X21",
     "1 + X12*X21 + X11^4"),
    ("SL2_kerF(3)", (8, 8, 8),
     "u11 + u12*u21 + u11^2 + u11*u12*u21 + u11^3 + u11^2*u12*u21 + u11^4"
     " + u11^3*u12*u21 + u11^5 + u11^4*u12*u21 + u11^6 + u11^5*u12*u21"
     " + u11^7 + u11^6*u12*u21 + u11^7*u12*u21",
     "u11^2*u12*u21 + u11*u12^2*u21^2 + u11^3*u12*u21 + u11^2*u12^2*u21^2"
     " + u11^4*u12*u21 + u11^3*u12^2*u21^2 + u11^5*u12*u21"
     " + u11^4*u12^2*u21^2 + u11^6*u12*u21 + u11^5*u12^2*u21^2"
     " + u11^7*u12*u21 + u11^6*u12^2*u21^2 + u11^7*u12^2*u21^2"),
    ("pullback(1,0,3)", (2, 16, 2, 1), "X11 + X11*X12*X21", "X12*X21"),
    ("pullback(0,1,3)", (2, 2, 16, 1), "X11 + X11*X12*X21", "X12*X21"),
    ("pullback(1,1,3)", (16, 2, 2, 1), "X11^15 + X11^15*X12*X21",
     "1 + X12*X21 + X11^4")])
def test_catalogue_quotients_are_pinned(cid, box, top_var, all_vars):
    # staircases and residues of GF(2) carriers closed through ideal_span;
    # SL2_kerF is a free chart whose fourth name, u22, is an alias
    A = zoo_parse(cid, F2).carrier
    names = A.vars + tuple(A.aliases)
    assert [A.exponents(m) for m in A.basis_monomials()] == _box(box)
    assert str(A.var(names[3])) == top_var
    assert str(_product(A, names)) == all_vars


def _product(A, names):
    """The product of the named variables and aliases of A."""
    out = A.one()
    for nm in names:
        out = out * A.var(nm)
    return out


def test_sl2_kernel_over_gf3_is_pinned():
    # the 729-dim chart; u22 and the product of all four names read the
    # normal forms of the quotient k[u11,u12,u21,u22]/(u^9, det - 1)
    A = zoo_parse("SL2_kerF(2)", F3).carrier
    assert [A.exponents(m) for m in A.basis_monomials()] == _box((9, 9, 9))
    assert str(A.var("u22")) == (
        "2*u11 + u12*u21 + u11^2 + 2*u11*u12*u21 + 2*u11^3 + u11^2*u12*u21"
        " + u11^4 + 2*u11^3*u12*u21 + 2*u11^5 + u11^4*u12*u21 + u11^6"
        " + 2*u11^5*u12*u21 + 2*u11^7 + u11^6*u12*u21 + u11^8"
        " + 2*u11^7*u12*u21 + u11^8*u12*u21")
    assert str(_product(A, ("u11", "u12", "u21", "u22"))) == (
        "2*u11^2*u12*u21 + u11*u12^2*u21^2 + u11^3*u12*u21"
        " + 2*u11^2*u12^2*u21^2 + 2*u11^4*u12*u21 + u11^3*u12^2*u21^2"
        " + u11^5*u12*u21 + 2*u11^4*u12^2*u21^2 + 2*u11^6*u12*u21"
        " + u11^5*u12^2*u21^2 + u11^7*u12*u21 + 2*u11^6*u12^2*u21^2"
        " + 2*u11^8*u12*u21 + u11^7*u12^2*u21^2 + 2*u11^8*u12^2*u21^2")


@pytest.mark.parametrize("F,n,dim", [(Field(5), 2, 15625), (F3, 3, 19683),
                                     (F2, 5, 32768), (F2, 6, 262144)],
                         ids=["GF(5) n=2", "GF(3) n=3", "GF(2) n=5",
                              "GF(2) n=6"])
def test_sl2_kernels_on_shells_past_the_limit_build(F, n, dim):
    # the four-variable shells of 390 625 to 2^24 monomials are gone: the
    # carrier is the free chart on u11, u12, u21, of the same dimension
    A = SL2_kerF(n, F).carrier
    assert A.dim == dim <= DIM_LIMIT
    assert type(A) is Algebra
    assert A.vars == ("u11", "u12", "u21") and set(A.aliases) == {"u22"}


def test_sl2_kernel_past_the_quotient_limit_is_refused():
    # the chart of dim 5^9 trips the free algebra's own guard
    with pytest.raises(SizeGuard) as exc:
        SL2_kerF(3, Field(5))
    assert exc.value.what == "algebra dimension"
    assert exc.value.size == 5 ** 9


def test_building_a_quotient_lays_out_no_shell(monkeypatch):
    widths = []
    init = Subspace.__init__

    def counted(self, field, n):
        widths.append(n)
        init(self, field, n)

    monkeypatch.setattr(Subspace, "__init__", counted)
    G = pullback(1, 1, 3)
    assert G.dim == 64 and G.carrier.ambient_dim() == 16 ** 4
    assert max(widths, default=0) < G.carrier.ambient_dim()


# -- presentation changes and small isomorphisms -------------------------

def test_d_presentation_iso_is_the_pinned_involution():
    f = d_presentation_iso(2)
    At = f.target.carrier
    assert f.images["S"] == At.var("S")
    assert f.images["T"] == At.var("T") + At.var("S") * At.var("T") ** 2
    assert f.is_bijective()
    # applying the substitution twice returns each generator
    twice = {nm: f.map(f.images[nm]) for nm in ("S", "T")}
    assert twice["S"] == At.var("S") and twice["T"] == At.var("T")


def test_d_presentation_iso_odd_characteristic():
    for n in (1, 2):
        f = d_presentation_iso(n, F3)
        assert morphism_check(f)["ok"] and f.is_bijective()


def test_D0_and_D1_are_products_of_heights():
    assert find_isomorphism(D(0), alpha(1)) is not None
    assert find_isomorphism(D(1), hopf_product(alpha(1), alpha(1))) is not None


def test_H_char3_straightens_to_alpha():
    # u = t + a t^6 is primitive, giving k[T]/(T^9) with primitive T
    for a in (1, 2):
        Hh = H(a, 2, F3)
        t = Hh.carrier.var("T")
        f = Morphism(alpha(2, F3), Hh,
                     {"T": t + t ** 6 * Hh.carrier.scalar(a)})
        assert morphism_check(f)["ok"] and f.is_bijective()


def test_frobenius_kernels_of_D():
    for n in (1, 2, 3):
        Dn = D(n)
        for l in range(1, n + 1):
            K = frobenius_kernel(Dn, l)
            assert presentations_equal(K, D(l))


def test_center_of_D_and_its_quotient():
    profiles = {1: [2], 2: [4, 4], 3: [4, 8, 8]}
    for n in (1, 2, 3):
        Dn = D(n)
        A = Dn.carrier
        I = hopf_ideal_closure(Dn, [A.var("S"), A.var("T") ** 2])
        assert is_central(Dn, I)
        Q = quotient_group(Dn, I)
        assert Q.dim == 2 ** n
        assert is_cocommutative(Q)
        assert [frobenius_kernel(Q, r).dim for r in range(1, n + 1)] \
            == profiles[n]


# -- exhaustive subgroup tables ------------------------------------------

def _alpha1_up_to_name(sub):
    vars_ = sub.carrier.vars
    rename = {"S": "T"} if vars_ == ("S",) else None
    return presentations_equal(sub, alpha(1), rename=rename)


def test_subgroup_table_of_D2():
    d2 = D(2)
    A = d2.carrier
    S, T = A.var("S"), A.var("T")
    ideals = enumerate_subgroups(d2)
    assert len(ideals) == 8
    seen = []
    for idl in ideals:
        if idl.dim == 0:
            assert presentations_equal(closed_subgroup(d2, []), d2)
            seen.append("full")
        elif idl.dim == d2.dim - 1:
            sub = closed_subgroup(d2, idl.basis_polys())
            assert sub.carrier.dim == 1
            seen.append("trivial")
        elif idl.dim == 4:
            sub = closed_subgroup(d2, idl.basis_polys())
            if idl.contains(S):
                assert presentations_equal(sub, alpha(2))
                seen.append("alpha2")
            elif idl.contains(T ** 2):
                assert presentations_equal(sub, D(1))
                seen.append("D1")
            else:
                assert idl.contains(S + T ** 2)
                assert presentations_equal(sub, H(1, 2))
                seen.append("H12")
        else:
            assert idl.dim == 6
            sub = closed_subgroup(d2, idl.basis_polys())
            assert _alpha1_up_to_name(sub)
            seen.append("alpha1")
    assert sorted(seen) == ["D1", "H12", "alpha1", "alpha1", "alpha1",
                            "alpha2", "full", "trivial"]


def test_subgroup_table_of_D1():
    d1 = D(1)
    ideals = enumerate_subgroups(d1)
    assert len(ideals) == 5
    dims = sorted(idl.dim for idl in ideals)
    assert dims == [0, 2, 2, 2, 3]
    for idl in ideals:
        if idl.dim == 2:
            assert _alpha1_up_to_name(closed_subgroup(d1, idl.basis_polys()))


# -- the height-two rescaling identity -----------------------------------

def test_h_iso_cube_condition_over_F16():
    # targets of a rescaling isomorphism from H(1, 2) are exactly the
    # nonzero cubes; the fifth powers are a strictly smaller set
    cubes = F16.nth_powers(3)
    fifths = F16.nth_powers(5)
    assert len(cubes) == 5 and len(fifths) == 3
    reachable = set()
    for b in F16.nonzero():
        for a1 in F16.nonzero():
            rep = h_iso_map(1, b, 2, a1, F16)
            assert rep["satisfied"] == (rep["lhs"] == rep["rhs"])
            if rep["satisfied"]:
                assert rep["check_ok"] and rep["bijective"]
                reachable.add(b)
    assert reachable == set(cubes)
    assert reachable != set(fifths)
    g = F16.gen
    g3 = F16.pow(g, 3)
    assert g3 in reachable and g3 not in fifths


@settings(max_examples=60)
@given(a=st.sampled_from(sorted(Field(2, 4).nonzero())),
       b=st.sampled_from(sorted(Field(2, 4).nonzero())),
       a1=st.sampled_from(sorted(Field(2, 4).nonzero())))
def test_h_iso_identity_is_the_fourth_power_law(a, b, a1):
    rep = h_iso_map(a, b, 2, a1, F16)
    want = F16.mul(a, F16.pow(a1, 4)) == F16.mul(a1, b)
    assert rep["satisfied"] == want
    if want:
        assert rep["check_ok"] and rep["bijective"]


# -- coactions ------------------------------------------------------------

def test_diagonal_coaction_verifies():
    G, M = alpha(2), mu(1)
    t2 = G.carrier.tensor(M.carrier)
    x = t2.embed(G.carrier.var("T"), 0)
    v = t2.one() + t2.embed(M.carrier.var("U"), 1)
    assert group_coaction_verify(G, M, {"T": x})["ok"]
    assert group_coaction_verify(G, M, {"T": x * v})["ok"]


def test_coaction_verify_rejects_non_coaction():
    G, M = alpha(2), mu(1)
    t2 = G.carrier.tensor(M.carrier)
    x = t2.embed(G.carrier.var("T"), 0)
    bad = group_coaction_verify(G, M, {"T": x + t2.embed(
        G.carrier.var("T") ** 2, 0)})
    assert not bad["ok"]
    assert {f.axiom for f in bad["failures"]} == {"coassoc", "counit_M"}


# (field, image of T) -> sorted (axiom, generator, residual) triples of the
# broken coactions of mu(1) on alpha(2); x = T, u = U on the second leg
COACTION_FAILURES = {
    ("F2", "x + x^2"): [("coassoc", "T", "T^2"), ("counit_M", "T", "T^2")],
    ("F2", "1 + x"): [("coassoc", "T", "1"), ("counit_G", "T", "1"),
                      ("counit_M", "T", "1"), ("delta_G", "T", "1"),
                      ("well_defined", "T", "1")],
    ("F2", "x + x^3 u"): [("coassoc", "T", "T^3*U'*U''"),
                          ("delta_G", "T", "T*T'^2*U'' + T^2*T'*U''")],
    ("F2", "u"): [("coassoc", "T", "U' + U'*U''"), ("counit_G", "T", "U"),
                  ("counit_M", "T", "T"), ("delta_G", "T", "U''")],
    ("F4", "x + x^2"): [("coassoc", "T", "T^2"), ("counit_M", "T", "T^2")],
    ("F4", "x + x^3 u"): [("coassoc", "T", "T^3*U'*U''"),
                          ("delta_G", "T", "T*T'^2*U'' + T^2*T'*U''")],
    ("F4", "g x"): [("coassoc", "T", "T"), ("counit_M", "T", "(g+1)*T")],
    ("F4", "x + g x u"): [("coassoc", "T", "T*U'*U''")],
    ("F4", "x + g x^2 u"): [("coassoc", "T", "g*T^2*U'*U''")],
}


def _broken_image(F, name):
    G, M = alpha(2, F), mu(1, F)
    t2 = G.carrier.tensor(M.carrier)
    x = t2.embed(G.carrier.var("T"), 0)
    u = t2.embed(M.carrier.var("U"), 1)
    g = t2.scalar(F.gen)
    image = {"x + x^2": x + x ** 2, "1 + x": t2.one() + x,
             "x + x^3 u": x + x ** 3 * u, "u": u, "g x": x * g,
             "x + g x u": x + x * u * g, "x + g x^2 u": x + x ** 2 * u * g}
    return G, M, image[name]


@pytest.mark.parametrize("case", sorted(COACTION_FAILURES))
def test_coaction_failures_pinned(case):
    F = {"F2": F2, "F4": F4}[case[0]]
    G, M, rho = _broken_image(F, case[1])
    rep = group_coaction_verify(G, M, {"T": rho})
    got = sorted((f.axiom, f.where, str(f.residual))
                 for f in rep["failures"])
    assert got == COACTION_FAILURES[case]
    assert not rep["ok"]


# (group, image) -> every failure, in the verifier's order: the axioms as
# listed (well_defined, counit_M, counit_G, coassoc, delta_G), generators
# in carrier order within each
COACTION_FAILURE_ORDER = {
    "alpha2-GF2 1 + x": [
        ("well_defined", "T", "1"), ("counit_M", "T", "1"),
        ("counit_G", "T", "1"), ("coassoc", "T", "1"), ("delta_G", "T", "1")],
    "H12-GF4 x + g x u": [
        ("coassoc", "T", "T*U'*U''"), ("delta_G", "T", "g*T^2*T'^2*U''")],
    "invariants y1 + y2": [
        ("well_defined", "relation", "Y1^2"), ("counit_M", "Y1", "Y2"),
        ("coassoc", "Y1", "Y2"), ("delta_G", "Y2", "Y1^2*Y2' + Y1^2*Y1'")],
}


def _ordered_case(case):
    if case == "invariants y1 + y2":
        K = mu2_invariants_D(1, 1, 1)["group"]
        y1, y2 = K.carrier.var("Y1"), K.carrier.var("Y2")
        return K, mu(1), {"Y1": y1 + y2, "Y2": y2}
    F = F2 if case.startswith("alpha2") else F4
    G, M = (alpha(2, F) if F is F2 else H(1, 2, F)), mu(1, F)
    t2 = G.carrier.tensor(M.carrier)
    x = t2.embed(G.carrier.var("T"), 0)
    u = t2.embed(M.carrier.var("U"), 1)
    rho = t2.one() + x if F is F2 else x + x * u * t2.scalar(F.gen)
    return G, M, {"T": rho}


@pytest.mark.parametrize("case", sorted(COACTION_FAILURE_ORDER))
def test_coaction_failure_order_pinned(case):
    rep = group_coaction_verify(*_ordered_case(case))
    got = [(f.axiom, f.where, str(f.residual))
           for f in rep["failures"]]
    assert got == COACTION_FAILURE_ORDER[case]


def test_coaction_images_must_be_on_the_generators():
    G, M = alpha(2), mu(1)
    t2 = G.carrier.tensor(M.carrier)
    x = t2.embed(G.carrier.var("T"), 0)
    with pytest.raises(BadParams, match="'T'"):
        group_coaction_verify(G, M, {})
    with pytest.raises(BadParams, match="'S'"):
        group_coaction_verify(G, M, {"T": x, "S": x})


def test_coaction_pins_cover_every_axiom():
    seen = {t[0] for trips in COACTION_FAILURES.values() for t in trips}
    assert seen == {"well_defined", "counit_M", "counit_G", "coassoc",
                    "delta_G"}


def test_coaction_checks_relations_of_subspace_carriers():
    # the invariants carrier is read off its generators' images: no
    # ideal_gens, and its one Groebner basis relation Y2^2 + Y1^2, which
    # Y1 -> Y1 + Y2 breaks; a map that respects the generators respects
    # the ideal
    K = mu2_invariants_D(1, 1, 1)["group"]
    y1, y2 = K.carrier.var("Y1"), K.carrier.var("Y2")
    assert not K.carrier.ideal_gens
    assert [str(g) for g in K.carrier.groebner] == ["Y2^2 + Y1^2"]
    rep = group_coaction_verify(K, mu(1), {"Y1": y1 + y2, "Y2": y2})
    broken = [f for f in rep["failures"]
              if (f.axiom, f.where) == ("well_defined", "relation")]
    assert len(broken) == 1
    assert str(broken[0].residual) == "Y1^2"
    assert group_coaction_verify(K, mu(1), {"Y1": y1, "Y2": y2})["ok"]


def test_mu_action_normalize_three_vectors():
    for coeffs in [(1, 0), (0, 1), (1, 1)]:
        rep = mu_action_normalize(1, coeffs, 3)
        assert rep["intertwines"]
        assert not rep["residual"]


@settings(max_examples=24)
@given(a1=st.integers(0, 1), a2=st.integers(0, 1),
       i=st.sampled_from([1, -1]))
def test_mu_action_normalize_property(a1, a2, i):
    rep = mu_action_normalize(i, (a1, a2), 3)
    assert rep["intertwines"]


def test_mu_action_rejects_linear_term():
    with pytest.raises(NotAnAction):
        mu_action_normalize(1, {0: 1, 1: 1}, 3)
    with pytest.raises(NotAnAction):
        mu_action_normalize(1, {0: F4.gen}, 3, F4)


def test_enumerate_coactions_counts():
    assert len(enumerate_coactions(alpha(2), mu(1))) == 3
    assert len(enumerate_coactions(alpha(2, F4), mu(1, F4))) == 5
    assert len(enumerate_coactions(H(1, 2), mu(1))) == 1
    assert len(enumerate_coactions(H(1, 2, F4), mu(1, F4))) == 1


def test_enumerate_coactions_size_guard():
    with pytest.raises(SizeGuard):
        enumerate_coactions(alpha(3), mu(3))


# -- maps out of the frobenius kernels of SL2 ------------------------------

def test_sl2_hom_counts_and_shapes():
    for n, total in [(1, 4), (2, 10)]:
        homs = sl2_hom_enumerate(n)
        assert len(homs) == total
        lines = set()
        for h in homs:
            if h["trivial"]:
                continue
            assert h["factored"] and h["f_additive"]
            assert h["B_trace"] == 0 and h["B_det"] == 0
            lines.add(h["line"])
        assert lines == {(1, 0), (0, 1), (1, 1)}


def test_unipotent_line_hom_all_lines():
    for n in (1, 2):
        for s1, s2 in [(1, 0), (0, 1), (1, 1)]:
            f = unipotent_line_hom(s1, s2, n)
            assert morphism_check(f)["ok"]
            # u22 has no image of its own: its alias goes to -s1 s2 T
            T = f.target.carrier.var("T")
            assert f.map(f.source.carrier.var("u22")) == -(T * s1 * s2)


# -- invariants of the diagonal torus action -------------------------------

def test_mu2_invariants_grid():
    for n in (1, 2):
        for s1, s2 in [(1, 0), (0, 1), (1, 1)]:
            rep = mu2_invariants_D(s1, s2, n)
            assert rep["group"].carrier.dim == 2 ** (n + 2)
            assert all(rep["identities"].values()), rep["identities"]
            assert rep["iso"].is_bijective()


def test_mu2_invariants_shortcut_pattern():
    # the naive square identities hold except at full twist and depth two
    for n in (1, 2):
        for s1, s2 in [(1, 0), (0, 1), (1, 1)]:
            sc = mu2_invariants_D(s1, s2, n)["shortcuts"]
            expected = not (n == 2 and s1 == 1 and s2 == 1)
            assert all(v == expected for v in sc.values()), (s1, s2, n, sc)


# -- extensions ------------------------------------------------------------

def test_cocycle_identity_and_split_case():
    rep = cocycle_check(0, 2)
    assert rep["cocycle_identity"] and rep["splits"]


def test_cocycle_embeddings():
    rep = cocycle_check(1, 1)
    assert rep["cocycle_identity"]
    assert rep["pinned_embeddings"] == 3
    for n in (2, 3):
        rep = cocycle_check(1, n)
        assert rep["cocycle_identity"]
        assert rep["pinned_embeddings"] == 0
        assert rep["corrected_ok"] and rep["corrected_kernel_trivial"]


# -- lie algebra of the semidirect product ---------------------------------

def test_lie_algebra_of_D1_semidirect_mu():
    G = semidirect(D(1), mu(1), {"S": -1, "T": 1})
    assert G.carrier.dim == 8
    basis, bracket, ppower = lie_algebra(G)
    assert len(basis) == 3
    nil = [u for u in basis if not any(ppower(u))]
    tor = [u for u in basis if ppower(u) == u]
    assert len(nil) == 2 and len(tor) == 1
    # the nilpotent pair commutes and is stable under the toral bracket
    assert not any(bracket(nil[0], nil[1]))
    from gsl.linalg import Subspace
    span = Subspace(F2, len(basis[0]))
    for u in nil:
        span.insert(list(u))
    for w in nil:
        b = bracket(tor[0], w)
        assert any(b) and span.contains(list(b))
