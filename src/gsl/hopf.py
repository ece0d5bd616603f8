"""Finite commutative Hopf algebras and the group-scheme toolbox on top of them.

A HopfAlgebra bundles a carrier algebra (free truncated or quotient) with the
three structure maps given on generators.  Everything downstream is exact
linear algebra over the coefficient field: verification of the axioms,
morphism checks, kernels and images, Hopf ideals and quotients, point groups
over small test algebras, complete searches for subgroups and morphisms that
prune by equation, and the restricted Lie algebra on the tangent space,
with the tangent maps of morphisms (``tangent_map``) and the walk of its
restricted subalgebras (``restricted_subalgebras``).

Group morphisms are stored in the algebra direction throughout: a Morphism
with source H and target G is the algebra map A(H) -> A(G) and represents the
group map Spec A(G) -> Spec A(H).

All carriers here are finite local algebras (the schemes are connected, up to
unit-kind generators that are unipotent shifts of 1), so an element is a unit
exactly when its counit is nonzero.  A map out of a carrier is fixed by its
values on generators, so the antipode is solved and the axioms checked there.

A Hopf ideal V of A is decided through Q = A/V and V's generators, read off
one Groebner basis (``HopfIdeal``): each of its conditions asks an algebra
map out of the commutative A to kill V, so it is tested on the generators.
"""

from collections import namedtuple
from itertools import combinations, product

from .errors import BadParams, NotNormal, SizeGuard, VerifyError
from .linalg import Subspace, column_kernel, subspace_from
from .talg import (DIM_LIMIT, Algebra, Poly, QuotientAlgebra,
                   _evaluation_quotient, _mono_images, _scalar_leg,
                   _sum_images, apply_map, map_leg, multiply_legs,
                   quotient_algebra, subalgebra_generated)

POINTS_CANDIDATE_LIMIT = 1 << 20
TABLE_LIMIT = 256
ASSOC_FULL_LIMIT = 64
ENUM_SUBGROUP_LIMIT = 1 << 12
SEARCH_LIMIT = 1 << 24


# a verifier's report lists these; the residual is a nonzero Poly
Failure = namedtuple("Failure", "axiom where residual")


def _report(failures):
    """The report every verifier returns: {"ok", "failures"}."""
    return {"ok": not failures, "failures": failures}


def _require_ok(rep, what):
    """Raise VerifyError(what, first failure) unless the report is ok."""
    if not rep["ok"]:
        raise VerifyError(what, rep["failures"][0])


def _nil_order(f):
    """Least e with f^e = 0 for a nilpotent element (e >= 2 for f != 0)."""
    acc = f
    e = 1
    while acc != 0:
        acc = acc * f
        e += 1
        if e > f.alg.dim + 1:
            raise BadParams("element is not nilpotent")
    return max(e, 2)


def _unit_order(f):
    """Least e with f^e = 1; the unipotent units here have p-power order."""
    acc = f
    e = 1
    while acc != 1:
        acc = acc * f
        e += 1
        if e > 4 * f.alg.dim + 4:
            raise BadParams("element has no finite multiplicative order")
    return max(e, 2)


def _divide(A, polys):
    """A modulo the ideal J that the elements generate: (Q, pi, gens).

    One Groebner basis of A's relations and the elements, in the ambient
    shell, gives Q = A/J, and pi is Q's memoised residue on A's keys.
    The t - nf(t) over Q's leading keys t on A's staircase, in key order,
    are the rows of J's echelon form with divisor-minimal pivots: with
    A's relations they are a Groebner basis, so they generate J in A.
    """
    amb, stair = A.ambient, A._positions()
    Q = quotient_algebra(
        amb, _relation_polys(A) + [Poly(amb, g.d) for g in polys],
        eliminate=False)

    def pi(m):
        r = Q.reduce_term(m)
        return {m: 1} if r is None else r

    return Q, pi, [Poly(A, {t: 1}) - Poly(A, pi(t))
                   for t, _ in Q._leads if t in stair]


def _ideal_span_coords(A, polys):
    """The ideal of A that the elements generate in basis coordinates,
    and A modulo it: (V, ``_divide(A, polys)``).  The m - pi(m) over A's
    basis monomials m off Q's staircase, read at their positions (a
    monotone map), are V's echelon form."""
    Q, pi, gens = _divide(A, polys)
    rows = [A.to_vector(Poly(A, {m: 1}) - Poly(A, pi(m)))
            for m in A.basis_monomials() if Q.reduce_term(m) is not None]
    return subspace_from(A.field, A.dim, rows), (Q, pi, gens)


class HopfAlgebra(object):
    """Carrier algebra plus comultiplication, counit and antipode on generators.

    delta maps generator names to elements of carrier tensor carrier, counit
    maps them to scalar codes, antipode to carrier elements.  Pass
    antipode=None to have it solved from the other two maps on the
    generators (``_fixed_point_antipode``; the carrier is local).

    ``delta_mono`` is the coproduct on monomials, a ``talg._mono_images``
    memo filled on demand (a plain dict over A ox A per monomial);
    ``delta_map`` and the coassociativity check read it.
    ``antipode_mono`` is the antipode's memo on A, read by
    ``antipode_map``, ``hopf_verify`` and ``is_normal``.
    The counit of a monomial is a scalar, read off its exponents and
    memoised per key.

    ``t2()`` is the carrier's own tensor square (``Algebra._square``):
    groups on one carrier share it while any of them, or any element of
    it, is alive, so their coproducts compare.  Coordinates are the
    carrier's ``to_vector``/``from_vector``.
    """

    def __init__(self, carrier, delta, counit, antipode=None, name=None):
        self.carrier = carrier
        self.field = carrier.field
        self.name = name or "H"
        _require_on_gens("delta", delta, carrier.vars)
        _require_on_gens("counit", counit, carrier.vars)
        t2 = self._t2 = carrier._square()
        self._t3 = None
        self._lines = None
        # re-anchor the given elements on the carrier's tensor square, so
        # that values built against a caller-side tensor still compare;
        # one already on it is kept as given
        self.delta = {k: v if v.alg is t2 else apply_map(v, {}, t2)
                      for k, v in delta.items()}
        self.delta_mono = _mono_images(carrier, self.delta, t2)
        self.counit = {k: int(v) for k, v in counit.items()}
        self._eps_codes = [self.counit[nm] for nm in carrier.vars]
        # monomial key -> its counit, filled on first use
        self._eps = {}
        if antipode is None:
            antipode = self._fixed_point_antipode()
        _require_on_gens("antipode", antipode, carrier.vars)
        self.antipode = {k: apply_map(v, {}, carrier)
                         for k, v in antipode.items()}
        self.antipode_mono = _mono_images(carrier, self.antipode, carrier)

    @property
    def dim(self):
        return self.carrier.dim

    def t2(self):
        return self._t2

    def t3(self):
        if self._t3 is None:
            self._t3 = self.carrier.tensor(self.carrier, self.carrier)
        return self._t3

    def _line(self, legs=1):
        """A^(ox legs) ox k[X, X^-1]: with one leg the ring of ``action``'s
        line coactions, with two where their coassociativity is checked.
        Built once per group, so that coactions of the group multiply and
        compare."""
        if self._lines is None:
            X = Algebra(self.field, ("X",), (0,), ("laurent",))
            L = self.carrier.tensor(X)
            self._lines = (X, L, self.carrier.tensor(L))
        return self._lines[legs]

    def delta_map(self, f):
        if f.alg.vars != self.carrier.vars:
            f = apply_map(f, {}, self.carrier)
        return _sum_images(f, self.delta_mono, self.t2())

    def _eps_mono(self, m):
        """Counit of the monomial key m of the carrier: a scalar."""
        c = self._eps.get(m)
        if c is None:
            c = self._eps[m] = self._eps_exponents(self.carrier.exponents(m))
        return c

    def _eps_exponents(self, exps):
        """Counit of the monomial with the exponent tuple exps."""
        F = self.field
        out = 1
        for c, e in zip(self._eps_codes, exps):
            if e:
                out = F.mul(out, F.pow(c, e))
        return out

    def _eps_leg(self, m):
        """The counit of m as a ``map_leg`` image that drops the leg."""
        return _scalar_leg(self._eps_mono(m))

    def counit_map(self, f):
        if f.alg.vars != self.carrier.vars:
            f = apply_map(f, {}, self.carrier)
        F = self.field
        out = 0
        for m, c in f.d.items():
            out = F.add(out, F.mul(c, self._eps_mono(m)))
        return out

    def antipode_map(self, f):
        if f.alg.vars != self.carrier.vars:
            f = apply_map(f, {}, self.carrier)
        return _sum_images(f, self.antipode_mono, self.carrier)

    def gens(self):
        return [self.carrier.var(nm) for nm in self.carrier.vars]

    def aug_subspace(self):
        """The augmentation ideal as a coordinate subspace, spanned by
        m - eps(m) over the basis monomials m other than 1."""
        A = self.carrier
        one_pos = A.to_vector(A.one()).index(1)
        S = Subspace(self.field, A.dim)
        for i, m in enumerate(A.basis_monomials()):
            if i != one_pos:
                vec = [0] * A.dim
                vec[i] = 1
                vec[one_pos] = self.field.neg(self._eps_mono(m))
                S.insert(vec)
        return S

    def _fixed_point_antipode(self):
        """The antipode on generators, by iteration to a fixed point.

        With y = x - eps(x) in the augmentation ideal I and
        delta(y) = y ox 1 + 1 ox y + R(y), R(y) in I ox I, the antipode
        axiom reads S(y) = -y - sum c S(m1) m2 over the terms c m1 ox m2
        of R(y), a ``multiply_legs`` over one S memo per round.  From
        S(y) = -y each round fixes S modulo one more power of the
        nilpotent I, so this settles within dim A rounds.
        """
        A, t2 = self.carrier, self.t2()
        start, rest = {}, {}
        for nm in A.vars:
            # S(x) = eps(x) + S(y)
            e = A.scalar(self.counit[nm])
            y = A.var(nm) - e
            start[nm] = e - y
            rest[nm] = (self.delta[nm] - t2.scalar(self.counit[nm])
                        - t2.embed(y, 0) - t2.embed(y, 1))
        anti = start
        for _ in range(A.dim + 2):
            legs = (_mono_images(A, anti, A), _same_leg)
            nxt = {nm: start[nm] - multiply_legs(rest[nm], legs, A)
                   for nm in A.vars}
            if nxt == anti:
                return anti
            anti = nxt
        raise VerifyError("antipode", "fixed-point iteration did not settle")

    def describe(self):
        return "%s: dim %d over %s, generators %s" % (
            self.name, self.dim, self.field.name, ", ".join(self.carrier.vars))

    def __repr__(self):
        return "HopfAlgebra(%s, dim=%d)" % (self.name, self.dim)


def _relation_polys(A):
    """Generators of the carrier's ideal, falling back to its Groebner
    basis."""
    if not isinstance(A, QuotientAlgebra):
        return []
    return list(A.ideal_gens or A.groebner)


def _generating_vars(A):
    """The carrier's variables less each v that leads an element v - t
    of its Groebner basis: t is lex-smaller, so a polynomial in earlier
    variables, and by induction the variables kept generate A."""
    groebner = A.groebner if isinstance(A, QuotientAlgebra) else ()
    # a leading monomial is the largest key
    leads = [A.ambient.exponents(max(g.d)) for g in groebner]
    skip = {t.index(1) for t in leads if sum(t) == 1}
    return [nm for i, nm in enumerate(A.vars) if i not in skip]


def _coassoc_sides(H, dx):
    """(delta ox id) and (id ox delta) applied to a two-leg element.

    With dx = sum c m1 ox m2 over reduced monomials, the sides are
    sum c delta(m1) ox m2 and sum c m1 ox delta(m2): one ``map_leg`` each,
    with no product or reduction in A ox A ox A.
    """
    t3 = H.t3()
    return map_leg(dx, 0, H.delta_mono, t3), map_leg(dx, 1, H.delta_mono, t3)


def _counit_sides(H, dx):
    """(eps ox id) and (id ox eps) applied to a two-leg element: one
    ``map_leg`` each into A, with eps of a monomial a scalar, so no
    product is made."""
    A = H.carrier
    return map_leg(dx, 0, H._eps_leg, A), map_leg(dx, 1, H._eps_leg, A)


def hopf_verify(H):
    """Check the Hopf axioms; returns a report, never raises.

    The report is {"ok": bool, "failures": [Failure, ...]}, with the
    axioms well_defined, coassociative, counital and antipode_ok.

    The relations (truncations, ideal generators) are checked first and
    in full; the axioms then on ``_generating_vars`` only.  That suffices:
    once the maps kill the relations, both sides of each axiom are
    algebra maps out of A (S is one, A being commutative).  Every check
    is sparse, leg by leg: coassociativity in A ox A ox A
    (``_coassoc_sides``), the counit sides (``_counit_sides``), and the
    antipode sides mu (S ox id) delta, mu (id ox S) delta as
    ``multiply_legs`` over one S memo.  No basis of a tensor power is
    listed, so no SizeGuard applies, whatever dim A is.
    """
    A = H.carrier
    t2 = H.t2()
    failures = []

    def check(lhs, rhs, axiom, where, *args):
        # the location is formatted only for a failure
        if lhs != rhs:
            failures.append(Failure(axiom, where % args, lhs - rhs))

    # the three maps must kill the carrier's relations
    shell = A.ambient
    for i, nm in enumerate(shell.vars):
        d, kind = shell.orders[i], shell.kinds[i]
        for tag, img, makes_one in (("delta", H.delta[nm], t2.one()),
                                    ("counit", A.scalar(H.counit[nm]), A.one()),
                                    ("antipode", H.antipode[nm], A.one())):
            tgt = makes_one if kind == "unit" else img.alg.zero()
            check(img ** d, tgt, "well_defined", "%s(%s)^%d", tag, nm, d)
    for g in _relation_polys(A):
        for tag, val in (("delta", H.delta_map(g)),
                         ("counit", A.scalar(H.counit_map(g))),
                         ("antipode", H.antipode_map(g))):
            check(val, 0, "well_defined", "%s(ideal gen %s)", tag, g)

    S = H.antipode_mono
    for nm in _generating_vars(A):
        dx = H.delta[nm]
        check(*_coassoc_sides(H, dx), "coassociative", "%s", nm)
        x = A.var(nm)
        lc, rc = _counit_sides(H, dx)
        check(lc, x, "counital", "%s", nm)
        check(rc, x, "counital", "%s'", nm)
        target = A.scalar(H.counit[nm])
        for legs, where in (((S, _same_leg), "%s"), ((_same_leg, S), "%s'")):
            check(multiply_legs(dx, legs, A), target, "antipode_ok", where, nm)
    return _report(failures)


def _same_leg(m):
    """The identity on a reduced monomial, as a ``multiply_legs`` image."""
    return {m: 1}


def _swap_legs(f):
    """f in A ox A with its two legs exchanged, by permuting the keys."""
    t = f.alg
    return Poly(t, {t.join_mono(t.split_mono(m)[::-1]): c
                    for m, c in f.d.items()})


def is_cocommutative(H):
    return all(_swap_legs(H.delta[nm]) == H.delta[nm]
               for nm in H.carrier.vars)


def _require_on_gens(what, given, names):
    """BadParams naming the first generator that ``given`` (a dict) has
    no entry for, or else the first of its keys that is no generator."""
    for nm in names:
        if nm not in given:
            raise BadParams("%s: no entry for the generator %r" % (what, nm))
    for nm in given:
        if nm not in names:
            raise BadParams("%s: %r is not a generator" % (what, nm))


def _same_field(source, target):
    if source.field != target.field:
        raise BadParams("source and target fields differ")


class Morphism(object):
    """Algebra map A(source) -> A(target); group map Spec target -> Spec source."""

    def __init__(self, source, target, images, name=None):
        _same_field(source, target)
        self.source = source
        self.target = target
        _require_on_gens("images", images, source.carrier.vars)
        # an image on another algebra is moved onto the carrier by name
        B = target.carrier
        self.images = {nm: e if e.alg is B else apply_map(e, {}, B)
                       for nm, e in images.items()}
        self.name = name or "f"

    def map(self, f):
        return apply_map(f, self.images, self.target.carrier)

    def is_bijective(self):
        """Whether this algebra map is an isomorphism: equal dimensions,
        and df injective on Lie(target).  Every carrier is finite local
        with residue field k, so by Nakayama's lemma a map into it is
        onto exactly when it is onto m/m^2, dual to the tangent space
        (Demazure-Gabriel II; Waterhouse, GTM 66)."""
        return self.source.dim == self.target.dim and _is_onto(self)

    def __repr__(self):
        img = ", ".join("%s -> %s" % (nm, self.images[nm])
                        for nm in self.source.carrier.vars)
        return "Morphism(%s: %s)" % (self.name, img)


def morphism_check(f):
    """Full Hopf-map check for a Morphism; returns a report, never raises.

    The report is {"ok": bool, "failures": [Failure, ...]}: each equation
    of ``_morphism_equations`` (well_defined, delta_compatible,
    counit_compatible, antipode_compatible) on all of f, through one memo
    of f on monomials, stopping after the well_defined ones if any fails.
    Source and target are taken to pass ``hopf_verify``.
    """
    H, G = f.source, f.target
    A = H.carrier
    image = _mono_images(A, f.images, G.carrier)
    deltas = {nm: G.delta_map(f.images[nm]) for nm in _generating_vars(A)}
    failures = []
    for axiom, where, _names, sides in _morphism_equations(H, G):
        # the well_defined equations come first; stop after them if any failed
        if (axiom != "well_defined" and failures
                and failures[-1].axiom == "well_defined"):
            break
        lhs, rhs = sides(f.images, image, deltas)
        if lhs != rhs:
            failures.append(Failure(axiom, where, lhs - rhs))
    return _report(failures)


def _requotient(carrier, extra):
    """Quotient a carrier by additional elements, re-eliminating linears;
    the carrier's aliases are carried over."""
    amb = carrier.ambient
    aliases = {nm: Poly(amb, d) for nm, d in carrier.aliases.items()}
    if isinstance(carrier, QuotientAlgebra):
        gens = _relation_polys(carrier) + [carrier.lift(g) for g in extra]
        return quotient_algebra(amb, gens, aliases=aliases)
    return quotient_algebra(carrier, list(extra), aliases=aliases)


def kernel_subgroup(f, name=None):
    """Kernel of the group map given by f: the closed subgroup of the
    target cut out by the image of the source's augmentation ideal."""
    H, G = f.source, f.target
    gens = [f.images[nm] - G.carrier.scalar(H.counit[nm])
            for nm in H.carrier.vars]
    return closed_subgroup(G, gens, name or ("ker " + f.name))


def subgroup_from_elements(G, named_elems, name=None):
    """Sub-Hopf algebra generated by named carrier elements, re-presented.

    named_elems is a list of (generator name, element) pairs.  A unit u
    (eps(u) != 0) is taken as u eps(u)^-1, which generates the same
    subalgebra and has counit 1, hence a p-power order.  The shell
    is the free truncated algebra on the names, and ev sends its monomials
    to the matching products of elements.  The staircase walk of
    ``talg._evaluation_quotient`` reads the carrier Q, the shell modulo
    ker ev, off the images of the staircase and its border alone.  Its
    Subspace holds the rows e_j | A.to_vector(ev(s_j)) over the staircase
    s_j of Q, and the residue of 0 | v is -c | 0 exactly when
    v = sum c_j ev(s_j) (a nonzero high block means v escapes the span).
    Delta of each element is expressed leg by leg: its left slices, one
    per right-leg monomial, then the right slices this leaves, so no
    vector of A.dim^2 coordinates is built and no SizeGuard applies.
    The antipode is expressed directly.  The result is a fresh
    HopfAlgebra on those generators, certified by hopf_verify, together
    with the inclusion Morphism into G.
    """
    A = G.carrier
    F = G.field
    elems = [(nm, el) for nm, el in named_elems
             if el != el.alg.scalar(el.constant_term())]
    if not elems:
        Q = Algebra(F, (), ())
        K = HopfAlgebra(Q, {}, {}, {}, name=name or "trivial")
        return K, Morphism(K, G, {}, name="incl")
    names = [nm for nm, _ in elems]
    if len(set(names)) != len(names):
        raise BadParams("duplicate generator names")
    orders, kinds = [], []
    for i, (nm, el) in enumerate(elems):
        c = G.counit_map(el)
        if c:
            el = el * F.inv(c)
            elems[i] = (nm, el)
            kinds.append("unit")
            orders.append(_unit_order(el))
        else:
            kinds.append("nil")
            orders.append(_nil_order(el))
    shell = Algebra(F, tuple(names), tuple(orders), tuple(kinds))
    image = _mono_images(shell, dict(elems), A)
    Q, aug = _evaluation_quotient(
        shell, lambda m: A.to_vector(Poly(A, image(m))), A.dim)
    stair = Q.basis_monomials()
    k = aug.n - A.dim
    pos = A._positions()

    def express(terms):
        """The {j: c} with sum c_j ev(stair[j]) equal to the element of A
        with coordinates terms = {i: t}, or None if it escapes the span."""
        vec = [0] * (k + A.dim)
        for i, t in terms.items():
            vec[k + i] = t
        res = aug.residue(vec)
        if any(res[k:]):
            return None
        return {j: F.neg(c) for j, c in enumerate(res[:k]) if c}

    tQ = Q._square()
    t2 = G.t2()

    def express_slices(slices):
        """express() of each {key: terms} of slices, gathered as
        {j: {key: c}}, or None if a slice escapes."""
        out = {}
        for key, terms in slices.items():
            got = express(terms)
            if got is None:
                return None
            for j, c in got.items():
                out.setdefault(j, {})[key] = c
        return out

    def express_delta(d):
        lefts = {}
        for mono, c in d.items():
            m1, m2 = t2.split_mono(mono)
            lefts.setdefault(pos[m2], {})[pos[m1]] = c
        rights = express_slices(lefts)
        pairs = None if rights is None else express_slices(rights)
        if pairs is None:
            return None
        return tQ.poly({tQ.join_mono((stair[j1], stair[j2])): c
                        for j2, row in pairs.items() for j1, c in row.items()})

    delta, counit, anti = {}, {}, {}
    for nm, el in elems:
        dq = express_delta(G.delta_map(el).d)
        if dq is None:
            raise VerifyError("subalgebra stability",
                              "delta(%s) escapes the span" % nm)
        sq = express({pos[m]: c for m, c in G.antipode_map(el).d.items()})
        if sq is None:
            raise VerifyError("subalgebra stability",
                              "antipode(%s) escapes the span" % nm)
        delta[nm] = dq
        anti[nm] = Q.poly({stair[j]: c for j, c in sq.items()})
        counit[nm] = G.counit_map(el)
    K = HopfAlgebra(Q, delta, counit, anti, name=name or "sub")
    _require_ok(hopf_verify(K), "subgroup Hopf structure")
    return K, Morphism(K, G, dict(elems), name="incl")


def image_subgroup(f, name=None):
    """Image of the group map given by f, re-presented on the generator
    images that survive."""
    named = [(nm, f.images[nm]) for nm in f.source.carrier.vars]
    K, _incl = subgroup_from_elements(f.target, named,
                                      name=name or ("im " + f.name))
    return K


def closed_subgroup(H, equations, name=None):
    """Subgroup scheme cut out by augmentation-ideal equations.

    Equations on another algebra are moved onto the carrier by name.  The
    structure maps are pushed through the projection pi onto Q, the
    carrier modulo the ideal they generate (delta as (pi ox pi) delta,
    leg by leg); if that ideal is not a Hopf ideal the induced maps fail
    the axioms and VerifyError propagates.
    """
    equations = [apply_map(e, {}, H.carrier) for e in equations]
    for e in equations:
        if H.counit_map(e) != 0:
            raise BadParams("subgroup equations must lie in the "
                            "augmentation ideal")
    Q = _requotient(H.carrier, equations)
    QA, tQ = Q.tensor(H.carrier), Q._square()
    pi = _mono_images(H.carrier, {}, Q)
    delta = {nm: map_leg(map_leg(H.delta[nm], 0, pi, QA), 1, pi, tQ)
             for nm in Q.vars}
    counit = {nm: H.counit[nm] for nm in Q.vars}
    anti = {nm: _sum_images(H.antipode[nm], pi, Q) for nm in Q.vars}
    K = HopfAlgebra(Q, delta, counit, anti, name=name or (H.name + " sub"))
    _require_ok(hopf_verify(K), "quotient Hopf structure")
    return K


def primitive_elements(H):
    """Basis of the primitives of the carrier: x with
    delta(x) = x ox 1 + 1 ox x.  A primitive x is the Hopf map
    k[T] -> A(G) with T -> x, so the primitives are the homomorphisms
    G -> G_a (Demazure & Gabriel, II §1).  They do not span the tangent
    space in general: mu(1) has none, and GF(2) alpha(2), whose tangent
    space is a line, has T and T^2.

    The basis is the ``column_kernel`` of the columns
    delta(m) - m ox 1 - 1 ox m over the basis monomials m.  Refused
    (SizeGuard) before any column is built when A ox A, the key space of
    the columns, has more than DIM_LIMIT monomials."""
    A = H.carrier
    if A.dim * A.dim > DIM_LIMIT:
        raise SizeGuard("primitive_elements column keys", A.dim * A.dim,
                        DIM_LIMIT)
    t2 = H.t2()
    columns = []
    for m in A.basis_monomials():
        f = A.poly({m: 1})
        columns.append((H.delta_map(f) - t2.elem(f, A.one())
                        - t2.elem(A.one(), f)).d)
    return [A.from_vector(vec) for vec in column_kernel(H.field, columns)]


def _leibniz(H):
    """The Leibniz rule of ``lie_algebra`` on H's carrier, for generators
    of any counit: (grad, value), grad(m) the nonzero partial derivatives
    (i, m_i eps(m / x_i)) of the monomial m at eps, memoised, and
    value(u, m) = u(m) for a tangent vector u."""
    A, F = H.carrier, H.field
    grads = {}

    def grad(m):
        out = grads.get(m)
        if out is None:
            out = grads[m] = []
            exps = A.exponents(m)
            for i, e in enumerate(exps):
                c = F.scalar_from_int(e)
                if c:
                    c = F.mul(c, H._eps_exponents(
                        exps[:i] + (e - 1,) + exps[i + 1:]))
                if c:
                    out.append((i, c))
        return out

    def value(u, m):
        acc = 0
        for i, c in grad(m):
            acc = F.add(acc, F.mul(c, u[i]))
        return acc

    return grad, value


def lie_algebra(H):
    """The restricted Lie algebra of H on its tangent space at eps.

    A Lie element is an eps-derivation u: A -> k, held as its values on
    ``carrier.vars``.  By the Leibniz rule u(m) = sum_i m_i eps(m / x_i)
    u(x_i) on a monomial m, so the basis is the ``column_kernel`` of the
    Jacobian at eps of the carrier's relations, one column per variable,
    keyed by relation; a truncation x^d adds nothing, as d x^(d-1)
    vanishes at eps.  The bracket [u, v] is
    (u ox v - v ox u) read on delta of the generators.  The p-map is read
    off points (Demazure & Gabriel, II §4): over
    R = k[t_1, ..., t_p]/(t_k^2), each eps + t_k u is a point of G, and
    u^[p] is the coefficient of t_1...t_p in the product of these p
    points.  Each product is one ``multiply_legs`` of delta of the
    generators, so neither operation reads delta of a monomial, and
    nothing of size dim A is laid out.

    Returns (basis, bracket, ppower), bracket and ppower acting on
    tangent vectors.
    """
    A, F = H.carrier, H.field
    r = len(A.vars)
    split = H.t2().split_mono
    grad, value = _leibniz(H)

    jacobian = [{} for _ in range(r)]
    for g, rel in enumerate(_relation_polys(A)):
        for m, c in rel.d.items():
            for i, d in grad(m):
                jacobian[i][g] = F.add(jacobian[i].get(g, 0), F.mul(c, d))

    def bracket(u, v):
        out = []
        for nm in A.vars:
            acc = 0
            for mono, c in H.delta[nm].d.items():
                m1, m2 = split(mono)
                x = F.sub(F.mul(value(u, m1), value(v, m2)),
                          F.mul(value(v, m1), value(u, m2)))
                acc = F.add(acc, F.mul(c, x))
            out.append(acc)
        return out

    def ppower(u):
        R = Algebra(F, tuple("t%d" % k for k in range(F.p)), (2,) * F.p)
        one, = R.one().d
        # eps + t_k u on the generators, one point per t_k
        points = [{nm: Poly(R, {m: x for m, x in ((one, e), (t, c)) if x})
                   for nm, e, c in zip(A.vars, H._eps_codes, u)}
                  for t, in (g.d for g in R.gens())]
        point = points[0]
        for step in points[1:]:
            legs = (_mono_images(A, point, R), _mono_images(A, step, R))
            point = {nm: multiply_legs(H.delta[nm], legs, R)
                     for nm in A.vars}
        top, = R.monomial((1,) * F.p).d
        return [point[nm].d.get(top, 0) for nm in A.vars]

    return column_kernel(F, jacobian), bracket, ppower


def tangent_map(f):
    """df on tangent vectors, as a function: a tangent vector u of
    f.target (held as in ``lie_algebra``) goes to u o f, the tangent
    vector of f.source with the values u(f(x)) on its ``carrier.vars``,
    by the Leibniz rule of ``lie_algebra``."""
    F = f.source.field
    _, value = _leibniz(f.target)
    images = [f.images[nm].d.items() for nm in f.source.carrier.vars]

    def df(u):
        out = []
        for terms in images:
            acc = 0
            for m, c in terms:
                acc = F.add(acc, F.mul(c, value(u, m)))
            out.append(acc)
        return out

    return df


def _tangent_image(f, vectors):
    """The span of df(u) over tangent vectors u of f.target, as a
    Subspace of f.source's tangent vectors (``tangent_map``)."""
    df = tangent_map(f)
    return subspace_from(f.source.field, len(f.source.carrier.vars),
                         [df(u) for u in vectors])


def _is_onto(f):
    """Whether f is onto A(f.target), that is, the group map has trivial
    kernel: df is injective on Lie(f.target) (``Morphism.is_bijective``)."""
    basis = lie_algebra(f.target)[0]
    return _tangent_image(f, basis).dim == len(basis)


def restricted_subalgebras(H):
    """Every restricted subalgebra of Lie(H), as a Subspace of tangent
    vectors (Demazure-Gabriel II 7: the subgroups of H when H has
    height one).  Each subspace of the span of ``lie_algebra``'s basis
    is met once, by its reduced echelon form over that basis (a pivot
    set, then the free entries right of each pivot), and kept when its
    rows close under bracket and p-map.  The subspaces, a sum of
    Gaussian binomials, are counted first, and the walk is refused past
    SEARCH_LIMIT (SizeGuard)."""
    F = H.field
    basis, bracket, ppower = lie_algebra(H)
    n, r = len(basis), len(H.carrier.vars)
    count = binomial = 1
    for k in range(1, n + 1):
        binomial = binomial * (F.q ** (n - k + 1) - 1) // (F.q ** k - 1)
        count += binomial
    if count > SEARCH_LIMIT:
        raise SizeGuard("restricted_subalgebras subspaces", count,
                        SEARCH_LIMIT)
    out = []
    for k in range(n + 1):
        for piv in combinations(range(n), k):
            slots = [(i, j) for i, l in enumerate(piv)
                     for j in range(l + 1, n) if j not in piv]
            for vals in product(F.elements(), repeat=len(slots)):
                rows = [list(basis[l]) for l in piv]
                for (i, j), c in zip(slots, vals):
                    F.axpy(rows[i], c, basis[j], range(r))
                h = subspace_from(F, r, rows)
                if (all(h.contains(bracket(u, v))
                        for u, v in combinations(rows, 2))
                        and all(h.contains(ppower(u)) for u in rows)):
                    out.append(h)
    return out


def _twist_carrier(carrier, r):
    F = carrier.field
    if isinstance(carrier, QuotientAlgebra):
        amb = carrier.ambient

        def tw(g):
            return apply_map(g, {}, amb, coeff_map=lambda c: F.frob(c, r))

        # the carrier's variables are already final: re-eliminating would
        # drop any that a twisted relation pins to the others
        gens = _relation_polys(carrier)
        twisted = [tw(g) for g in gens]
        if twisted == gens:
            # a twist fixing every generator (always so over GF(p)) fixes
            # the ideal too
            return carrier
        return quotient_algebra(amb, twisted, eliminate=False)
    return carrier


def frobenius(H, r=1):
    """Iterated relative Frobenius as a Morphism out of the coefficient
    twisted presentation."""
    if r < 1:
        raise BadParams("frobenius iterate needs r >= 1")
    F = H.field
    q = F.p ** r
    carrier_tw = _twist_carrier(H.carrier, r)
    t2_tw = carrier_tw._square()

    def tw(f, target):
        return apply_map(f, {}, target, coeff_map=lambda c: F.frob(c, r))

    delta = {nm: tw(H.delta[nm], t2_tw) for nm in carrier_tw.vars}
    counit = {nm: F.frob(H.counit[nm], r) for nm in carrier_tw.vars}
    anti = {nm: tw(H.antipode[nm], carrier_tw) for nm in carrier_tw.vars}
    H_tw = HopfAlgebra(carrier_tw, delta, counit, anti,
                       name="%s^(%d)" % (H.name, q))
    images = {nm: H.carrier.var(nm) ** q for nm in carrier_tw.vars}
    return Morphism(H_tw, H, images, name="F^%d" % r)


def frobenius_kernel(H, r=1):
    return kernel_subgroup(frobenius(H, r), name="ker F^%d %s" % (r, H.name))


def frobenius_image(H, r=1):
    return image_subgroup(frobenius(H, r), name="im F^%d %s" % (r, H.name))


class HopfIdeal(object):
    """A subspace V of the carrier A, in reduced-basis coordinates, that
    is to be a Hopf ideal: an ideal and a coideal, antipode-stable and
    killed by the counit.  It cuts out a closed subgroup.

    Its one cache, ``_quotient()``, filled on first use, holds Q, the
    projection pi and the generators of the ideal J that V generates, all
    from one Groebner basis of A's relations and V's basis (``_divide``).
    V is an ideal exactly when dim A - dim Q = dim V; a V that is no ideal
    is read through J, and ``verify`` reports it.
    """

    def __init__(self, hopf, subspace):
        self.hopf = hopf
        self.subspace = subspace
        self._cache = None

    @property
    def dim(self):
        return self.subspace.dim

    def contains(self, f):
        return self.subspace.contains(self.hopf.carrier.to_vector(f))

    def basis_polys(self):
        A = self.hopf.carrier
        return [A.from_vector(v) for v in self.subspace.basis()]

    def _quotient(self):
        """(Q, pi, generators, whether V is an ideal)."""
        if self._cache is None:
            A = self.hopf.carrier
            Q, pi, gens = _divide(A, self.basis_polys())
            self._cache = Q, pi, gens, A.dim - Q.dim == self.dim
        return self._cache

    def _is_hopf(self):
        """Whether V is a Hopf ideal: an ideal whose generators g have
        eps(g) = 0, (pi ox pi) delta(g) = 0 (delta(g) lies in
        V ox A + A ox V) and pi S(g) = 0.  The three are algebra maps out
        of the commutative A, so they kill V when they kill its generators."""
        H = self.hopf
        Q, pi, gens, ideal = self._quotient()
        tAQ, tQ = H.carrier.tensor(Q), Q.tensor(Q)
        return ideal and all(
            not H.counit_map(g)
            and not map_leg(map_leg(H.delta_map(g), 1, pi, tAQ), 0, pi, tQ)
            and not _sum_images(H.antipode_map(g), pi, Q) for g in gens)

    def _escaping_legs(self, f):
        """The legs that keep delta(f) out of V ox A + A ox V, in basis
        order: the first legs of (pi ox pi) delta(f), one per surviving
        second-leg monomial, then the second legs of (id ox pi) delta(f),
        one per first-leg monomial, cut to those."""
        H = self.hopf
        A = H.carrier
        Q, pi, _, _ = self._quotient()
        tAQ, tQ = A.tensor(Q), Q.tensor(Q)
        half = map_leg(H.delta_map(f), 1, pi, tAQ)
        cols, rows = {}, {}
        for mono, c in map_leg(half, 0, pi, tQ).d.items():
            m1, m2 = tQ.split_mono(mono)
            cols.setdefault(m2, {})[m1] = c
        for mono, c in half.d.items():
            m1, m2 = tAQ.split_mono(mono)
            if m2 in cols:
                rows.setdefault(m1, {})[m2] = c
        order = ((cols, Q._positions()), (rows, A._positions()))
        return [apply_map(Poly(Q, legs[m]), {}, A) for legs, pos in order
                for m in sorted(legs, key=pos.__getitem__)]

    def verify(self):
        """The four defining properties as a report over the basis of V:
        x f (``ideal``) and S(f) (``antipode_stable``) lie in V, no leg of
        delta(f) escapes V ox A + A ox V (``coideal``, taken sparsely
        through Q by ``_escaping_legs``), eps(f) = 0."""
        H = self.hopf
        A = H.carrier
        V = self.subspace
        failures = []

        def outside(axiom, where, f):
            res = V.residue(A.to_vector(f))
            if any(res):
                failures.append(Failure(axiom, where, A.from_vector(res)))

        for f in self.basis_polys():
            for nm in A.vars:
                outside("ideal", "%s*(%s)" % (nm, f), A.var(nm) * f)
            failures += [Failure("coideal", str(f), leg)
                         for leg in dict.fromkeys(self._escaping_legs(f))]
            outside("antipode_stable", str(f), H.antipode_map(f))
            eps = H.counit_map(f)
            if eps:
                failures.append(Failure("augmented", str(f), A.scalar(eps)))
        return _report(failures)

    def __repr__(self):
        return "HopfIdeal(dim=%d of %r)" % (self.dim, self.hopf)


def hopf_ideal_closure(H, seeds):
    """Hopf ideal containing the seeds, grown by forced leg adjunction.

    Rounds: take the ideal the seeds span; while it is no Hopf ideal,
    adjoin the escaping legs of delta(f), each less its counit, and S(f)
    if it escapes, for each basis element f, and re-span from the ideal's
    generators and those.  So the ideal stays in the augmentation ideal.
    When the seeds already generate a Hopf ideal nothing is adjoined and
    the result is exactly that ideal; an escape that several different
    ideals could repair gets both of its legs, which may overshoot the
    minimum.  Seeds on another algebra are moved onto the carrier first."""
    A = H.carrier
    seeds = [apply_map(s, {}, A) for s in seeds]
    for s in seeds:
        if H.counit_map(s) != 0:
            raise BadParams("closure seeds must lie in the augmentation ideal")
    add, old = [s for s in seeds if s.d], None
    for _ in range(A.dim + 2):
        # one division gives the ideal and fills its cache
        V, quotient = _ideal_span_coords(A, add)
        ideal = HopfIdeal(H, V)
        ideal._cache = quotient + (True,)
        if V.dim == old or ideal._is_hopf():
            break
        old, add = V.dim, list(quotient[2])
        for f in ideal.basis_polys():
            # a leg off the augmentation ideal is a unit, so its part in
            # it, leg - eps(leg), goes in: the ideal stays in ker eps
            add += [g - H.counit_map(g) for g in ideal._escaping_legs(f)]
            sf = H.antipode_map(f)
            if not ideal.contains(sf):
                add.append(sf)
    return ideal


def is_central(H, ideal):
    """Whether the subgroup scheme the ideal cuts out is central: compare
    (pi ox id) delta with (pi ox id) swap delta on the generators."""
    A = H.carrier
    Q, pi, _, _ = ideal._quotient()
    T = Q.tensor(A)
    return all(map_leg(dx, 0, pi, T) == map_leg(_swap_legs(dx), 0, pi, T)
               for dx in H.delta.values())


def is_normal(H, ideal):
    """Whether the subgroup the ideal cuts out is normal, as (ok, witness):
    whether the adjoint map j -> sum pi(j_(2)) ox S(j_(1)) j_(3) into
    Q ox A, a ``multiply_legs`` of (delta ox id) delta(j), kills the
    ideal.  For commutative A it is an algebra map, so it is tested on the
    ideal's generators; the witness is the first it does not kill."""
    A = H.carrier
    Q, pi, gens, _ = ideal._quotient()
    T = Q.tensor(A)
    S = H.antipode_mono
    legs = (lambda m: T.embed(Poly(A, S(m)), 1).d,
            lambda m: T.embed(Poly(Q, pi(m)), 0).d,
            lambda m: T.embed(Poly(A, {m: 1}), 1).d)
    for g in gens:
        d2, _ = _coassoc_sides(H, H.delta_map(g))
        if multiply_legs(d2, legs, T) != 0:
            return False, g
    return True, None


def quotient_group(H, ideal, name=None):
    """Quotient by the normal subgroup the ideal cuts out: the coinvariants
    of the right translation coaction, re-presented on fresh generators.

    f is a coinvariant when rho(f) = f ox 1 for rho = (id ox pi) delta,
    one memo on monomials into A ox Q (H's delta memo is not filled).
    The coinvariants are the ``column_kernel`` of the sparse columns
    rho(m) - m ox 1 over the basis monomials m.  Refused (SizeGuard)
    before normality is tested when A ox Q, the key space of the
    columns, has more than DIM_LIMIT monomials."""
    A = H.carrier
    Q, pi, _, _ = ideal._quotient()
    if A.dim * Q.dim > DIM_LIMIT:
        raise SizeGuard("quotient_group column keys", A.dim * Q.dim,
                        DIM_LIMIT)
    ok, witness = is_normal(H, ideal)
    if not ok:
        raise NotNormal(witness)
    T = A.tensor(Q)
    rho = _mono_images(A, {nm: map_leg(dx, 1, pi, T)
                           for nm, dx in H.delta.items()}, T)
    columns = [(Poly(T, rho(m)) - T.embed(A.poly({m: 1}), 0)).d
               for m in A.basis_monomials()]
    span = column_kernel(H.field, columns)
    chosen = []
    sub = subalgebra_generated(A, [])
    idx = 0
    for vec in span:
        f = A.from_vector(vec)
        if not sub.contains(vec):
            idx += 1
            chosen.append(("Z%d" % idx, f - A.scalar(f.constant_term())))
            sub = subalgebra_generated(A, [el for _, el in chosen])
            if sub.dim == len(span):
                break
    if sub.dim != len(span):
        raise VerifyError("quotient group",
                          "coinvariants did not close into a subalgebra")
    K, _ = subgroup_from_elements(H, chosen, name=name or (H.name + "/N"))
    return K


def hopf_product(H1, H2, name=None):
    """Direct product of the group schemes: tensor of the Hopf algebras."""
    A1, A2 = H1.carrier, H2.carrier
    if isinstance(A1, QuotientAlgebra) or isinstance(A2, QuotientAlgebra):
        raise BadParams("hopf_product expects free truncated carriers")
    if A1.field != A2.field:
        raise BadParams("mismatched coefficient fields")
    names = list(A1.vars)
    for nm in A2.vars:
        while nm in names:
            nm += "2"
        names.append(nm)
    shell = Algebra(A1.field, tuple(names), A1.orders + A2.orders,
                    A1.kinds + A2.kinds)
    t2 = shell._square()
    delta, counit, anti = {}, {}, {}
    new = iter(names)
    for H in (H1, H2):
        rename = {nm: next(new) for nm in H.carrier.vars}
        # the inclusion of the factor's carrier into the shell
        embed = _mono_images(H.carrier, {nm: shell.var(to) for nm, to
                                         in rename.items()}, shell)
        half = shell.tensor(H.carrier)
        for nm, to in rename.items():
            delta[to] = map_leg(map_leg(H.delta[nm], 0, embed, half), 1,
                                embed, t2)
            counit[to] = H.counit[nm]
            anti[to] = _sum_images(H.antipode[nm], embed, shell)
    return HopfAlgebra(shell, delta, counit, anti,
                       name=name or "%s x %s" % (H1.name, H2.name))


def presentations_equal(H1, H2, rename=None):
    """Literal equality of presentations up to a generator renaming.

    Both carriers must be effectively free (dimension = product of the true
    generator orders) with matching orders and kinds, and the structure maps
    must agree term by term under the renaming."""
    rename = rename or {}
    A1, A2 = H1.carrier, H2.carrier
    if A1.field != A2.field or A1.dim != A2.dim:
        return False
    if tuple(rename.get(nm, nm) for nm in A1.vars) != tuple(A2.vars):
        return False

    def profile(A):
        out = []
        total = 1
        for i, nm in enumerate(A.vars):
            kind = A.ambient.kinds[i]
            x = A.var(nm)
            d = _unit_order(x) if kind == "unit" else _nil_order(x)
            out.append((d, kind))
            total *= d
        return out, total

    prof1, free1 = profile(A1)
    prof2, free2 = profile(A2)
    if prof1 != prof2 or free1 != A1.dim or free2 != A2.dim:
        return False

    def terms(f):
        return {f.alg.exponents(m): c for m, c in f.d.items()}

    for nm in A1.vars:
        nm2 = rename.get(nm, nm)
        if H1.counit[nm] != H2.counit[nm2]:
            return False
        if terms(H1.delta[nm]) != terms(H2.delta[nm2]):
            return False
        if terms(H1.antipode[nm]) != terms(H2.antipode[nm2]):
            return False
    return True


class GroupTable(object):
    """Points of a group scheme over a test algebra, with the group law."""

    def __init__(self, hopf, ring, elements, mul, inv, identity):
        self.hopf = hopf
        self.ring = ring
        self.elements = elements
        self.index = {e: i for i, e in enumerate(elements)}
        self._mul = mul
        self._inv = inv
        self.identity = identity
        self.order = len(elements)
        self.table = None
        if self.order <= TABLE_LIMIT:
            self.table = [[self.index[mul(a, b)] for b in elements]
                          for a in elements]

    def mul(self, a, b):
        if self.table is not None:
            return self.elements[self.table[self.index[a]][self.index[b]]]
        return self._mul(a, b)

    def inv(self, a):
        return self._inv(a)

    def is_abelian(self):
        return self.nonabelian_witness() is None

    def nonabelian_witness(self):
        for i, a in enumerate(self.elements):
            for b in self.elements[i + 1:]:
                if self.mul(a, b) != self.mul(b, a):
                    return a, b
        return None

    def check_axioms(self):
        """Identity, antipode inverses, associativity (sampled when large)."""
        e = self.identity
        for a in self.elements:
            if self.mul(e, a) != a or self.mul(a, e) != a:
                return False
            b = self.inv(a)
            if b not in self.index:
                return False
            if self.mul(a, b) != e or self.mul(b, a) != e:
                return False
        n = self.order
        if n <= ASSOC_FULL_LIMIT:
            triples = ((a, b, c) for a in self.elements for b in self.elements
                       for c in self.elements)
        else:
            picked = []
            total = n * n * n
            step = max(1, total // 1000)
            k = 0
            while k < total and len(picked) < 1000:
                i, rem = divmod(k, n * n)
                j, l = divmod(rem, n)
                picked.append((self.elements[i], self.elements[j],
                               self.elements[l]))
                k += step
            triples = picked
        for a, b, c in triples:
            if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                return False
        return True


def points_group(H, R):
    """R-valued points of the group scheme with the convolution group law.

    R is a local test algebra over the same field with nilpotent generators;
    a point is a tuple of generator images, each an R-coordinate tuple.
    Every element of R is listed, then each tuple of candidate images,
    so more than POINTS_CANDIDATE_LIMIT of either is refused (SizeGuard)
    before it is listed; the carrier's dimension plays no part."""
    A = H.carrier
    F = H.field
    if R.field != F:
        raise BadParams("test algebra must share the coefficient field")
    if R.dim is None:
        raise BadParams("test algebra must be finite, not laurent")
    if F.q ** R.dim > POINTS_CANDIDATE_LIMIT:
        raise SizeGuard("points_group test algebra", F.q ** R.dim,
                        POINTS_CANDIDATE_LIMIT)
    shell = A.ambient
    r_elems = _all_elements(R)
    names = list(A.vars)
    cand = []
    total = 1
    for nm in names:
        i = shell.vars.index(nm)
        d, kind = shell.orders[i], shell.kinds[i]
        if kind == "unit":
            ok = [r for r in r_elems if r.constant_term() != 0 and r ** d == 1]
        else:
            ok = [r for r in r_elems if r.constant_term() == 0 and r ** d == 0]
        cand.append(ok)
        total *= len(ok)
        if total > POINTS_CANDIDATE_LIMIT:
            raise SizeGuard("points_group candidates", total,
                            POINTS_CANDIDATE_LIMIT)
    ideal_gens = _relation_polys(A)

    points = []
    for pick in product(*cand):
        images = dict(zip(names, pick))
        if all(apply_map(g, images, R) == 0 for g in ideal_gens):
            points.append(tuple(tuple(R.to_vector(r)) for r in pick))

    def as_map(pt):
        return _mono_images(A, {nm: R.from_vector(pt[i])
                                for i, nm in enumerate(names)}, R)

    def mul(p1, p2):
        legs = (as_map(p1), as_map(p2))
        return tuple(tuple(R.to_vector(multiply_legs(H.delta[nm], legs, R)))
                     for nm in names)

    def inv(pt):
        image = as_map(pt)
        return tuple(tuple(R.to_vector(_sum_images(H.antipode[nm], image, R)))
                     for nm in names)

    identity = tuple(tuple(R.to_vector(R.scalar(H.counit[nm])))
                     for nm in names)
    return GroupTable(H, R, points, mul, inv, identity)


def _all_elements(R):
    """Every element of R, the last coordinate running fastest."""
    return [R.from_vector(vec)
            for vec in product(range(R.field.q), repeat=R.dim)]


def enumerate_subgroups(H):
    """All Hopf ideals of the carrier, one per closed subgroup.

    A walk up the lattice of ideals inside the augmentation ideal m.
    The carrier is local, so every ideal J above an ideal I contains a
    cover I + k.v with v outside I and m.v inside I.  From each ideal
    met, one linear solve on the coordinates off its pivots gives every
    such v, and each line of solutions is one step up; each ideal met is
    tested on its generators (``HopfIdeal._is_hopf``).  The result is
    ordered by pivot set, then by free entries.

    Any field; nil generators only (BadParams otherwise).  The walk is
    refused (SizeGuard) before it starts when its table of generator
    times basis monomial, dim^2 coordinates per generator, passes
    DIM_LIMIT, and as soon as it holds more than ENUM_SUBGROUP_LIMIT
    ideals, before any of them is tested.
    """
    A = H.carrier
    F = H.field
    if any(k != "nil" for k in A.ambient.kinds):
        raise BadParams("enumerate_subgroups expects nil generators")
    rows = len(H.gens()) * A.dim * A.dim
    if rows > DIM_LIMIT:
        raise SizeGuard("enumerate_subgroups cover rows", rows, DIM_LIMIT)
    one_pos = A.to_vector(A.one()).index(1)
    muls = [[A.to_vector(x * A.poly({m: 1})) for m in A.basis_monomials()]
            for x in H.gens()]
    zero = Subspace(F, A.dim)
    ideals = {(): zero}
    level = [zero]
    while level:
        up = []
        for I in level:
            for J in _ideal_covers(I, muls, one_pos):
                key = tuple(map(tuple, J.basis()))
                if key not in ideals:
                    ideals[key] = J
                    up.append(J)
                    if len(ideals) > ENUM_SUBGROUP_LIMIT:
                        raise SizeGuard("enumerate_subgroups ideals",
                                        len(ideals), ENUM_SUBGROUP_LIMIT)
        level = up
    found = [I for I in (HopfIdeal(H, V) for V in ideals.values())
             if I._is_hopf()]
    found.sort(key=lambda I: _echelon_order(I.subspace))
    return found


def _ideal_covers(I, muls, one_pos):
    """The ideals I + k.v covering the ideal I inside the augmentation
    ideal: v runs over the lines of vectors off the pivots of I with
    x.v in I for every generator x (``muls[x][c]`` holds the coordinates
    of x times basis monomial c)."""
    F, n = I.field, I.n
    free = [c for c in I.complement_indices() if c != one_pos]
    # the combinations of the e_c that every x sends into I: one column
    # per e_c, its residues keyed by (generator, coordinate)
    columns = [{(x, t): r for x, mul in enumerate(muls)
                for t, r in enumerate(I.residue(mul[c])) if r}
               for c in free]
    sols = column_kernel(F, columns)
    for coeffs in product(range(F.q), repeat=len(sols)):
        # one vector per line: the last nonzero coefficient is 1
        if next((a for a in reversed(coeffs) if a), 0) != 1:
            continue
        v = [0] * n
        for a, sol in zip(coeffs, sols):
            for t, s in enumerate(sol):
                if s:
                    v[free[t]] = F.add(v[free[t]], F.mul(a, s))
        J = I.copy()
        J.insert(v)
        yield J


def _echelon_order(V):
    """Sort key of a subspace: its pivot set read as a binary number, then
    its free entries, the last free entry of the last row first."""
    piv = V.pivots()
    pset = set(piv)
    free = [row[j] for row, l in zip(V.basis(), piv)
            for j in range(l) if j not in pset]
    return sum(1 << p for p in piv), free[::-1]


def _names_in(f, names):
    """The names whose variables occur in f; over a tensor power the
    legs' variables cycle through ``names``."""
    n, exps = len(names), f.alg.exponents
    return {names[i % n] for m in f.d for i, e in enumerate(exps(m)) if e}


def _morphism_equations(H1, H2):
    """The equations of a Hopf map A(H1) -> A(H2), in ``morphism_check``'s
    order: the shell powers and the relations (``well_defined``) first,
    then delta, eps and S compatibility on each of ``_generating_vars``.
    Each side of the last three is an algebra map out of A(H1), so
    agreeing on those generators is agreeing on A(H1).

    Each entry is (axiom, where, names, sides): ``names`` are the source
    generators the equation reads, and ``sides(imgs, image, deltas)``
    returns its two sides on the images bound so far.  ``imgs`` maps a
    generator x to f(x) in A(H2), ``image`` is a ``talg._mono_images``
    memo of f on the monomials of A(H1) with every bound generator bound,
    and ``deltas`` maps x to delta(f(x)).  Relations and antipodes sum
    through ``image``, and (f ox f) delta(x) maps its legs through it one
    at a time, two ``map_leg`` passes through A(H2) ox A(H1), a tensor
    built once for the whole list.
    """
    A = H1.carrier
    B = H2.carrier
    names = A.vars
    tG, half = H2.t2(), B.tensor(A)
    zero = B.zero()

    def power(nm, d, kind):
        tgt = B.one() if kind == "unit" else zero
        return ("well_defined", "%s^%d" % (nm, d), {nm},
                lambda imgs, image, deltas: (imgs[nm] ** d, tgt))

    def relation(g):
        return ("well_defined", "ideal gen %s" % g, _names_in(g, names),
                lambda imgs, image, deltas: (_sum_images(g, image, B), zero))

    def delta(nm):
        dx = H1.delta[nm]
        return ("delta_compatible", nm, _names_in(dx, names) | {nm},
                lambda imgs, image, deltas:
                (map_leg(map_leg(dx, 0, image, half), 1, image, tG),
                 deltas[nm]))

    def counit(nm):
        c = B.scalar(H1.counit[nm])
        return ("counit_compatible", nm, {nm}, lambda imgs, image, deltas:
                (B.scalar(H2.counit_map(imgs[nm])), c))

    def antipode(nm):
        s = H1.antipode[nm]
        return ("antipode_compatible", nm, _names_in(s, names) | {nm},
                lambda imgs, image, deltas:
                (_sum_images(s, image, B), H2.antipode_map(imgs[nm])))

    shell = A.ambient
    out = [power(nm, d, kind)
           for nm, d, kind in zip(shell.vars, shell.orders, shell.kinds)]
    out += [relation(g) for g in _relation_polys(A)]
    for nm in _generating_vars(A):
        out += [delta(nm), counit(nm), antipode(nm)]
    return out


def _morphisms(H1, H2, shape, iso_only):
    """The search behind enumerate_morphisms and find_isomorphism, as a
    generator; the fields, the shape and the candidate count are checked
    before anything is made."""
    A1, A2 = H1.carrier, H2.carrier
    F = H1.field
    _same_field(H1, H2)
    names = list(A1.vars)
    if shape is None:
        aug = [A2.from_vector(v) for v in H2.aug_subspace().basis()]
        shape = {nm: aug for nm in names}
    _require_on_gens("shape", shape, names)
    count = 1
    for nm in names:
        count *= F.q ** len(shape[nm])
    if count > SEARCH_LIMIT:
        raise SizeGuard("enumerate_morphisms candidates", count, SEARCH_LIMIT)
    # each equation waits for the last generator it reads; one that reads
    # that generator alone filters its candidates once, up front
    depth = {nm: k for k, nm in enumerate(names)}
    alone = [[] for _ in names]
    joint = [[] for _ in names]
    for *_, support, sides in _morphism_equations(H1, H2) if names else ():
        k = max((depth[nm] for nm in support), default=0)
        (alone if support <= {names[k]} else joint)[k].append(sides)

    # one memo of f for the whole search: binding generator k rebinds
    # variable k, which drops only the monomials that read it
    image = _mono_images(A1, {}, A2, allow_missing=names)
    imgs, deltas = {}, {}
    cands = []
    for k, nm in enumerate(names):
        base = A2.scalar(H1.counit[nm])
        keep = []
        for el in _combos(A2, shape[nm]):
            img = base + el
            image.rebind(k, img)
            imgs[nm], deltas[nm] = img, H2.delta_map(img)
            if _hold(alone[k], imgs, image, deltas):
                keep.append((img, deltas[nm]))
        cands.append(keep)

    # every equation has passed on each full binding, so each is a map
    maps = (Morphism(H1, H2, dict(imgs))
            for _ in _bindings(0, names, cands, joint, image, imgs, deltas))
    return (f for f in maps if not iso_only or f.is_bijective())


def _hold(equations, imgs, image, deltas):
    """Whether both sides agree in each of the equations' ``sides``."""
    return all(lhs == rhs for lhs, rhs in
               (sides(imgs, image, deltas) for sides in equations))


def _combos(A, basis):
    """Every linear combination of the basis elements of A, the first
    coefficient running fastest, each made by one product and one sum."""
    if not basis:
        yield A.zero()
        return
    head = basis[0]
    for rest in _combos(A, basis[1:]):
        yield rest
        for c in range(1, A.field.q):
            yield rest + head * A.scalar(c)


def _bindings(k, names, cands, joint, image, imgs, deltas):
    """Depth first from generator k on: bind each candidate (image, its
    delta) of generator k into ``image``, imgs and deltas, cut the branch
    when an equation of ``joint[k]`` fails, and yield once per full
    binding."""
    if k == len(names):
        yield
        return
    for img, dimg in cands[k]:
        image.rebind(k, img)
        imgs[names[k]], deltas[names[k]] = img, dimg
        if _hold(joint[k], imgs, image, deltas):
            yield from _bindings(k + 1, names, cands, joint, image, imgs,
                                 deltas)


def enumerate_morphisms(H1, H2, shape=None, iso_only=False):
    """All Hopf algebra maps A(H1) -> A(H2) whose generator images are
    counit(x).1 plus linear combinations of the given shape elements
    (name -> list); the default shape is a basis of the augmentation ideal
    of H2.

    A depth-first search binds the generators' images in order.  Each
    equation of ``morphism_check`` (``_morphism_equations``) is tested as
    soon as every generator it reads is bound, and a failure cuts the
    branch, so a full binding has passed all of them and is returned
    without a second check.  The equations read one memo of
    the map on monomials, and binding a generator drops only the entries
    that read it (``talg._mono_images``).  A shape must be given on
    exactly the generators of A(H1), over the field of A(H2) (BadParams
    otherwise), and more than SEARCH_LIMIT candidate assignments
    are refused (SizeGuard), all before any search.
    """
    return list(_morphisms(H1, H2, shape, iso_only))


def find_isomorphism(H1, H2, shape=None):
    """The first bijective map that ``enumerate_morphisms`` would list,
    or None; the search stops there.  Same guard."""
    return next(_morphisms(H1, H2, shape, True), None)
