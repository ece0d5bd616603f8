"""Finite commutative Hopf algebras and the group-scheme toolbox on top of them.

A HopfAlgebra bundles a carrier algebra (free truncated or quotient) with the
three structure maps given on generators.  Everything downstream is exact
linear algebra over the coefficient field: verification of the axioms,
morphism checks, kernels and images, Hopf ideals and quotients, point groups
over small test algebras, exhaustive enumeration of subgroups and morphisms,
and the dual algebra with its primitive (Lie) part.

Group morphisms are stored in the algebra direction throughout: a Morphism
with source H and target G is the algebra map A(H) -> A(G) and represents the
group map Spec A(G) -> Spec A(H).

All carriers here are finite local algebras (the schemes are connected, up to
unit-kind generators that are unipotent shifts of 1), so an element is a unit
exactly when its counit is nonzero, and the antipode can always be recovered
as a convolution inverse.
"""

from .errors import BadParams, NotNormal, SizeGuard, VerifyError
from .linalg import Subspace, SpanSolver, _pack, subspace_from
from .talg import (Algebra, QuotientAlgebra, _shift_ticks, apply_map,
                   quotient_algebra, quotient_by_subspace,
                   subalgebra_generated)

POINTS_DIM_LIMIT = 64
POINTS_CANDIDATE_LIMIT = 1 << 20
TABLE_LIMIT = 256
ASSOC_FULL_LIMIT = 64
ENUM_SUBGROUP_DIM_LIMIT = 8
ENUM_MORPHISM_LIMIT = 1 << 24


def _basis_pos(alg):
    """Monomial -> position map for the reduced basis, cached on the algebra."""
    cache = getattr(alg, "_gsl_basis_pos", None)
    if cache is None:
        cache = {m: i for i, m in enumerate(alg.basis_monomials())}
        alg._gsl_basis_pos = cache
    return cache


def coords(f, alg=None):
    """Coordinates of a reduced polynomial over the basis monomials."""
    alg = alg or f.alg
    pos = _basis_pos(alg)
    vec = [0] * alg.dim
    for m, c in f.d.items():
        vec[pos[m]] = c
    return vec


def from_coords(alg, vec):
    basis = alg.basis_monomials()
    return alg.poly({basis[i]: c for i, c in enumerate(vec) if c})


def _push(f, target):
    """Project along equally-named generators; aliases resolve dropped ones."""
    return apply_map(f, {}, target)


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


def _ideal_span_coords(A, polys):
    """Ideal spanned by the given elements, in basis coordinates."""
    S = Subspace(A.field, A.dim)
    queue = []
    for g in polys:
        if g.d and S.insert(coords(g, A)):
            queue.append(g)
    xs = [A.var(nm) for nm in A.vars]
    while queue:
        f = queue.pop()
        for x in xs:
            w = f * x
            if w.d and S.insert(coords(w, A)):
                queue.append(w)
    return S


class HopfAlgebra(object):
    """Carrier algebra plus comultiplication, counit and antipode on generators.

    delta maps generator names to elements of carrier tensor carrier, counit
    maps them to scalar codes, antipode to carrier elements.  Pass
    antipode=None to have it solved from the other two maps (the convolution
    inverse of the identity, which exists because the carrier is local).
    """

    def __init__(self, carrier, delta, counit, antipode=None, name=None):
        self.carrier = carrier
        self.field = carrier.field
        self.name = name or "H"
        if set(delta) != set(carrier.vars):
            raise BadParams("delta must be given on exactly the carrier generators")
        if set(counit) != set(carrier.vars):
            raise BadParams("counit must be given on exactly the carrier generators")
        self._t2 = None
        self._t3 = None
        # re-anchor the given elements on this instance's own tensor square,
        # so that values built against a caller-side tensor still compare
        self.delta = {k: apply_map(v, {}, self.t2()) for k, v in delta.items()}
        self.counit = {k: int(v) for k, v in counit.items()}
        if antipode is None:
            antipode = self._solve_antipode()
        if set(antipode) != set(carrier.vars):
            raise BadParams("antipode must be given on exactly the carrier generators")
        self.antipode = {k: apply_map(v, {}, carrier)
                         for k, v in antipode.items()}

    @property
    def dim(self):
        return self.carrier.dim

    def t2(self):
        if self._t2 is None:
            cached = getattr(self.carrier, "_gsl_t2", None)
            if cached is None:
                cached = self.carrier.tensor(self.carrier)
                self.carrier._gsl_t2 = cached
            self._t2 = cached
        return self._t2

    def t3(self):
        if self._t3 is None:
            cached = getattr(self.carrier, "_gsl_t3", None)
            if cached is None:
                cached = self.carrier.tensor(self.carrier, self.carrier)
                self.carrier._gsl_t3 = cached
            self._t3 = cached
        return self._t3

    def delta_map(self, f):
        return apply_map(f, self.delta, self.t2())

    def counit_map(self, f):
        A = self.carrier
        images = {nm: A.scalar(c) for nm, c in self.counit.items()}
        return apply_map(f, images, A).constant_term()

    def antipode_map(self, f):
        return apply_map(f, self.antipode, self.carrier)

    def gens(self):
        return [self.carrier.var(nm) for nm in self.carrier.vars]

    def is_trivial(self):
        return self.carrier.dim == 1

    def aug_subspace(self):
        """The augmentation ideal as a coordinate subspace."""
        A = self.carrier
        F = self.field
        eps = self._eps_vector()
        one_pos = _basis_pos(A)[next(iter(A.one().d))]
        S = Subspace(F, A.dim)
        for i in range(A.dim):
            if i == one_pos:
                continue
            vec = [0] * A.dim
            vec[i] = 1
            if eps[i]:
                vec[one_pos] = F.neg(eps[i])
            S.insert(vec)
        return S

    def _eps_vector(self):
        cache = getattr(self, "_eps_vec", None)
        if cache is None:
            A = self.carrier
            cache = [self.counit_map(A.poly({m: 1})) for m in A.basis_monomials()]
            self._eps_vec = cache
        return cache

    def delta_table(self):
        """Per-basis-element coproduct as {(i, j): coefficient} dictionaries."""
        cache = getattr(self, "_delta_tab", None)
        if cache is None:
            A = self.carrier
            t2 = self.t2()
            pos = _basis_pos(A)
            cache = []
            for m in A.basis_monomials():
                img = self.delta_map(A.poly({m: 1}))
                entry = {}
                for mono, c in img.d.items():
                    m1, m2 = t2.split_mono(mono)
                    entry[(pos[m1], pos[m2])] = c
                cache.append(entry)
            self._delta_tab = cache
        return cache

    def _solve_antipode(self):
        """Antipode as the convolution inverse of the identity map.

        With g = unit.counit - id, the geometric series sum_k g^{*k} inverts
        id = unit.counit - g; it terminates because g kills 1 and raises the
        augmentation filtration degree, and that ideal is nilpotent.
        """
        A = self.carrier
        F = self.field
        n = A.dim
        eps = self._eps_vector()
        one_vec = coords(A.one(), A)
        tab = self.delta_table()
        g_cols = []
        for j in range(n):
            col = [F.mul(eps[j], c) for c in one_vec]
            col[j] = F.sub(col[j], 1)
            g_cols.append(from_coords(A, col))

        def conv_with_g(cols):
            # (g * h)(b_k) = sum over delta(b_k) of g(b_i) . h(b_j)
            out = []
            for k in range(n):
                acc = A.zero()
                for (i, j), c in tab[k].items():
                    if g_cols[i].d and cols[j].d:
                        acc = acc + g_cols[i] * cols[j] * A.scalar(c)
                out.append(acc)
            return out

        term = [A.scalar(eps[j]) for j in range(n)]  # the convolution unit
        total = [coords(t, A) for t in term]
        for _ in range(n + 2):
            term = conv_with_g(term)
            if all(not t.d for t in term):
                break
            for j in range(n):
                total[j] = [F.add(a, b)
                            for a, b in zip(total[j], coords(term[j], A))]
        else:
            raise VerifyError("antipode", "convolution series did not terminate")
        out = {}
        for nm in A.vars:
            vc = coords(A.var(nm), A)
            acc = [0] * n
            for j, c in enumerate(vc):
                if c:
                    acc = [F.add(a, F.mul(c, b))
                           for a, b in zip(acc, total[j])]
            out[nm] = from_coords(A, acc)
        return out

    def describe(self):
        return "%s: dim %d over %s, generators %s" % (
            self.name, self.dim, self.field.name, ", ".join(self.carrier.vars))

    def __repr__(self):
        return "HopfAlgebra(%s, dim=%d)" % (self.name, self.dim)


def _relation_polys(A):
    """Generators of the carrier's ideal, falling back to an ideal basis."""
    gens = list(getattr(A, "ideal_gens", []))
    if not gens and isinstance(A, QuotientAlgebra) and A.ideal.dim:
        gens = [A.ambient.from_vector(v) for v in A.ideal.basis()]
    return gens


def _coassoc_sides(H, dx):
    """(delta ox id) and (id ox delta) applied to a two-leg element."""
    t3 = H.t3()
    names = H.carrier.vars
    left_imgs = {nm: _shift_ticks(H.delta[nm], t3, 0) for nm in names}
    left_imgs.update({nm + "'": t3.var(nm + "''") for nm in names})
    right_imgs = {nm: t3.var(nm) for nm in names}
    right_imgs.update({nm + "'": _shift_ticks(H.delta[nm], t3, 1)
                       for nm in names})
    return apply_map(dx, left_imgs, t3), apply_map(dx, right_imgs, t3)


def hopf_verify(H):
    """Check the Hopf axioms; returns a report, never raises.

    report keys: well_defined, coassociative, counital, antipode_ok, ok,
    witnesses (list of (axiom, location, residual-string)).
    """
    A = H.carrier
    t2 = H.t2()
    report = {"well_defined": True, "coassociative": True,
              "counital": True, "antipode_ok": True, "witnesses": []}

    def fail(axiom, where, residual):
        report[axiom] = False
        report["witnesses"].append((axiom, where, str(residual)))

    # the three maps must kill the carrier's relations
    shell = A.ambient
    for i, nm in enumerate(shell.vars):
        d, kind = shell.orders[i], shell.kinds[i]
        for tag, img, makes_one in (("delta", H.delta[nm], t2.one()),
                                    ("counit", A.scalar(H.counit[nm]), A.one()),
                                    ("antipode", H.antipode[nm], A.one())):
            val = img ** d
            tgt = makes_one if kind == "unit" else val.alg.zero()
            if val != tgt:
                fail("well_defined", "%s(%s)^%d" % (tag, nm, d), val - tgt)
    for g in _relation_polys(A):
        for tag, images, tgt in (
                ("delta", H.delta, t2),
                ("counit", {nm: A.scalar(c) for nm, c in H.counit.items()}, A),
                ("antipode", H.antipode, A)):
            val = apply_map(g, images, tgt)
            if val != 0:
                fail("well_defined", "%s(ideal gen %s)" % (tag, g), val)

    for nm in A.vars:
        dx = H.delta[nm]
        left, right = _coassoc_sides(H, dx)
        if left != right:
            fail("coassociative", nm, left - right)
        x = A.var(nm)
        eps_l = {n: A.scalar(H.counit[n]) for n in A.vars}
        eps_l.update({n + "'": A.var(n) for n in A.vars})
        eps_r = {n: A.var(n) for n in A.vars}
        eps_r.update({n + "'": A.scalar(H.counit[n]) for n in A.vars})
        lc = apply_map(dx, eps_l, A)
        rc = apply_map(dx, eps_r, A)
        if lc != x:
            fail("counital", nm, lc - x)
        if rc != x:
            fail("counital", nm + "'", rc - x)
        target = A.scalar(H.counit[nm])
        s_l = {n: H.antipode[n] for n in A.vars}
        s_l.update({n + "'": A.var(n) for n in A.vars})
        s_r = {n: A.var(n) for n in A.vars}
        s_r.update({n + "'": H.antipode[n] for n in A.vars})
        ls = apply_map(dx, s_l, A)
        rs = apply_map(dx, s_r, A)
        if ls != target:
            fail("antipode_ok", nm, ls - target)
        if rs != target:
            fail("antipode_ok", nm + "'", rs - target)

    report["ok"] = (report["well_defined"] and report["coassociative"]
                    and report["counital"] and report["antipode_ok"])
    return report


def _swap_images(H):
    """Images exchanging the two legs of H ox H, for apply_map."""
    t2 = H.t2()
    swap = {nm: t2.var(nm + "'") for nm in H.carrier.vars}
    swap.update({nm + "'": t2.var(nm) for nm in H.carrier.vars})
    return swap


def is_cocommutative(H):
    t2 = H.t2()
    swap = _swap_images(H)
    for nm in H.carrier.vars:
        dx = H.delta[nm]
        if apply_map(dx, swap, t2) != dx:
            return False
    return True


class Morphism(object):
    """Algebra map A(source) -> A(target); group map Spec target -> Spec source."""

    def __init__(self, source, target, images, name=None):
        self.source = source
        self.target = target
        if set(images) != set(source.carrier.vars):
            raise BadParams("images must cover exactly the source generators")
        self.images = dict(images)
        self.name = name or "f"
        self._mat = None

    def map(self, f):
        return apply_map(f, self.images, self.target.carrier)

    def matrix(self):
        """Columns are the images of the source basis monomials."""
        if self._mat is None:
            A = self.source.carrier
            B = self.target.carrier
            self._mat = [coords(self.map(A.poly({m: 1})), B)
                         for m in A.basis_monomials()]
        return self._mat

    def rank(self):
        S = SpanSolver(self.source.field, self.target.dim)
        for col in self.matrix():
            S.add(col)
        return S.dim()

    def is_bijective(self):
        return (self.source.dim == self.target.dim
                and self.rank() == self.source.dim)

    def __repr__(self):
        img = ", ".join("%s -> %s" % (nm, self.images[nm])
                        for nm in self.source.carrier.vars)
        return "Morphism(%s: %s)" % (self.name, img)


def morphism_check(f):
    """Full Hopf-map check for a Morphism; returns a report, never raises."""
    H, G = f.source, f.target
    B = G.carrier
    tG = G.t2()
    report = {"well_defined": True, "delta_compatible": True,
              "counit_compatible": True, "antipode_compatible": True,
              "witnesses": []}

    def fail(key, where, residual):
        report[key] = False
        report["witnesses"].append((key, where, str(residual)))

    A = H.carrier
    shell = A.ambient
    for i, nm in enumerate(shell.vars):
        d, kind = shell.orders[i], shell.kinds[i]
        val = f.images[nm] ** d
        tgt = B.one() if kind == "unit" else B.zero()
        if val != tgt:
            fail("well_defined", "%s^%d" % (nm, d), val - tgt)
    for g in _relation_polys(A):
        val = apply_map(g, f.images, B)
        if val != 0:
            fail("well_defined", "ideal gen %s" % g, val)
    if not report["well_defined"]:
        report["ok"] = False
        return report

    ff = {nm: tG.embed(f.images[nm], 0) for nm in A.vars}
    ff.update({nm + "'": tG.embed(f.images[nm], 1) for nm in A.vars})
    for nm in A.vars:
        lhs = apply_map(H.delta[nm], ff, tG)
        rhs = apply_map(f.images[nm], G.delta, tG)
        if lhs != rhs:
            fail("delta_compatible", nm, lhs - rhs)
        ec = G.counit_map(f.images[nm])
        if ec != H.counit[nm]:
            fail("counit_compatible", nm, ec)
        sa = f.map(H.antipode[nm])
        sb = G.antipode_map(f.images[nm])
        if sa != sb:
            fail("antipode_compatible", nm, sa - sb)
    report["ok"] = (report["delta_compatible"] and report["counit_compatible"]
                    and report["antipode_compatible"])
    return report


def _requotient(carrier, extra):
    """Quotient a carrier by additional elements, re-eliminating linears."""
    if isinstance(carrier, QuotientAlgebra):
        amb = carrier.ambient
        gens = list(carrier.ideal_gens) + [carrier.lift(g) for g in extra]
        return quotient_algebra(amb, gens)
    return quotient_algebra(carrier, list(extra))


def _alias_tensor_images(Q, tQ):
    """Images resolving newly eliminated names on both legs of Q ox Q."""
    imgs = {}
    for nm, expr in Q.aliases.items():
        imgs[nm] = tQ.embed(expr, 0)
        imgs[nm + "'"] = tQ.embed(expr, 1)
    return imgs


def _induced_hopf(H, Q, name):
    """Push the structure maps of H through the projection onto Q."""
    tQ = Q.tensor(Q)
    imgs = _alias_tensor_images(Q, tQ)
    delta, counit, anti = {}, {}, {}
    for nm in Q.vars:
        delta[nm] = apply_map(H.delta[nm], imgs, tQ)
        counit[nm] = H.counit[nm]
        anti[nm] = _push(H.antipode[nm], Q)
    K = HopfAlgebra(Q, delta, counit, anti, name=name)
    rep = hopf_verify(K)
    if not rep["ok"]:
        raise VerifyError("quotient Hopf structure", rep["witnesses"][:1])
    return K


def kernel_subgroup(f, name=None):
    """Kernel of the group map given by f: the target modulo the image of
    the source's augmentation ideal."""
    H, G = f.source, f.target
    gens = [f.images[nm] - G.carrier.scalar(H.counit[nm])
            for nm in H.carrier.vars]
    Q = _requotient(G.carrier, gens)
    return _induced_hopf(G, Q, name or ("ker " + f.name))


def subgroup_from_elements(G, named_elems, name=None):
    """Sub-Hopf algebra generated by named carrier elements, re-presented.

    named_elems is a list of (generator name, element) pairs.  The span of
    the monomials in the elements is computed, checked to be stable under
    delta and antipode, and returned as a fresh HopfAlgebra on those
    generators together with the inclusion Morphism into G.
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
    for _, el in elems:
        if G.counit_map(el) != 0:
            kinds.append("unit")
            orders.append(_unit_order(el))
        else:
            kinds.append("nil")
            orders.append(_nil_order(el))
    shell = Algebra(F, tuple(names), tuple(orders), tuple(kinds))
    ev = []
    for m in shell.basis_monomials():
        acc = A.one()
        for k, e in enumerate(m):
            if e:
                acc = acc * elems[k][1] ** e
        ev.append(coords(acc, A))
    eqs = Subspace(F, shell.dim)
    for row_idx in range(A.dim):
        eqs.insert([ev[j][row_idx] for j in range(shell.dim)])
    K_sub = subspace_from(F, shell.dim, eqs.right_kernel_basis())
    Q = quotient_by_subspace(shell, K_sub)
    qmonos = Q.basis_monomials()
    shell_pos = {m: i for i, m in enumerate(shell.basis_monomials())}
    solver = SpanSolver(F, A.dim)
    for m in qmonos:
        solver.add(ev[shell_pos[m]])

    def express(element):
        got = solver.express(coords(element, A))
        if got is None:
            return None
        return Q.poly({qmonos[i]: c for i, c in got.items()})

    tQ = Q.tensor(Q)
    t2 = G.t2()
    pair_solver = SpanSolver(F, A.dim * A.dim)
    pair_monos = []
    for m1 in qmonos:
        v1 = ev[shell_pos[m1]]
        for m2 in qmonos:
            v2 = ev[shell_pos[m2]]
            outer = [0] * (A.dim * A.dim)
            for i, a in enumerate(v1):
                if a:
                    base = i * A.dim
                    for j, b in enumerate(v2):
                        if b:
                            outer[base + j] = F.mul(a, b)
            pair_solver.add(outer)
            pair_monos.append(m1 + m2)
    pos = _basis_pos(A)

    def express_pair(element2):
        vec = [0] * (A.dim * A.dim)
        for mono, c in element2.d.items():
            m1, m2 = t2.split_mono(mono)
            vec[pos[m1] * A.dim + pos[m2]] = c
        got = pair_solver.express(vec)
        if got is None:
            return None
        return tQ.poly({pair_monos[i]: c for i, c in got.items()})

    delta, counit, anti = {}, {}, {}
    for nm, el in elems:
        dq = express_pair(G.delta_map(el))
        if dq is None:
            raise VerifyError("subalgebra stability",
                              "delta(%s) escapes the span" % nm)
        sq = express(G.antipode_map(el))
        if sq is None:
            raise VerifyError("subalgebra stability",
                              "antipode(%s) escapes the span" % nm)
        delta[nm], anti[nm] = dq, sq
        counit[nm] = G.counit_map(el)
    K = HopfAlgebra(Q, delta, counit, anti, name=name or "sub")
    rep = hopf_verify(K)
    if not rep["ok"]:
        raise VerifyError("subgroup Hopf structure", rep["witnesses"][:1])
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

    The carrier is divided by the ideal the equations generate and the
    structure maps are pushed through; if that ideal is not a Hopf ideal
    the induced maps fail the axioms and VerifyError propagates.
    """
    for e in equations:
        if H.counit_map(e) != 0:
            raise BadParams("subgroup equations must lie in the "
                            "augmentation ideal")
    Q = _requotient(H.carrier, equations)
    return _induced_hopf(H, Q, name or (H.name + " sub"))


def primitive_elements(H):
    """Basis of the primitives of the carrier: x with
    delta(x) = x ox 1 + 1 ox x.  These span the tangent space cut out
    inside the augmentation ideal by linear conditions."""
    A = H.carrier
    F = H.field
    t2 = H.t2()
    n = A.dim
    seen = {}
    for j, m in enumerate(A.basis_monomials()):
        f = A.poly({m: 1})
        resid = (H.delta_map(f) - t2.elem(f, A.one())
                 - t2.elem(A.one(), f))
        for mono, c in resid.d.items():
            seen.setdefault(mono, [0] * n)[j] = c
    eqs = Subspace(F, n)
    for row in seen.values():
        eqs.insert(row)
    return [from_coords(A, vec) for vec in eqs.right_kernel_basis()]


def _twist_carrier(carrier, r):
    F = carrier.field
    if isinstance(carrier, QuotientAlgebra):
        amb = carrier.ambient

        def tw(g):
            return apply_map(g, {}, amb, coeff_map=lambda c: F.frob(c, r))

        # the carrier's variables are already final: re-eliminating would
        # drop any that a twisted relation pins to the others
        if carrier.ideal_gens:
            gens = carrier.ideal_gens
        else:
            # carriers presented straight from a subspace keep no generator
            # list; twist an ideal basis instead
            gens = [amb.from_vector(v) for v in carrier.ideal.basis()]
        twisted = [tw(g) for g in gens]
        if twisted == gens:
            # a twist fixing every generator (always so over GF(p)) fixes
            # the ideal too
            return carrier
        out = quotient_algebra(amb, twisted, eliminate=False)
        if out.vars != carrier.vars:
            raise VerifyError("frobenius", "twist changed the presentation shape")
        return out
    return carrier


def frobenius(H, r=1):
    """Iterated relative Frobenius as a Morphism out of the coefficient
    twisted presentation."""
    if r < 1:
        raise BadParams("frobenius iterate needs r >= 1")
    F = H.field
    q = F.p ** r
    carrier_tw = _twist_carrier(H.carrier, r)
    t2_tw = carrier_tw.tensor(carrier_tw)

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
    """A subspace of the carrier that is an ideal, a coideal, antipode-stable
    and killed by the counit; quotienting by one is passing to a quotient
    group presentation.  The subspace is held in reduced-basis coordinates."""

    def __init__(self, hopf, subspace, gens=None):
        self.hopf = hopf
        self.subspace = subspace
        self.gens = list(gens) if gens is not None else None

    @property
    def dim(self):
        return self.subspace.dim

    def contains(self, f):
        return self.subspace.contains(coords(f, self.hopf.carrier))

    def basis_polys(self):
        A = self.hopf.carrier
        return [from_coords(A, v) for v in self.subspace.basis()]

    def is_augmentation(self):
        return self.dim == self.hopf.dim - 1 and self._killed_by_counit()

    def _killed_by_counit(self):
        H = self.hopf
        F = H.field
        eps = H._eps_vector()
        for row in self.subspace.basis():
            acc = 0
            for i, c in enumerate(row):
                if c:
                    acc = F.add(acc, F.mul(c, eps[i]))
            if acc:
                return False
        return True

    def verify(self):
        """The four defining properties, as a report dictionary."""
        H = self.hopf
        A = H.carrier
        V = self.subspace
        rep = {"ideal": True, "coideal": True, "antipode_stable": True,
               "augmented": self._killed_by_counit()}
        for f in self.basis_polys():
            for nm in A.vars:
                if not V.contains(coords(A.var(nm) * f, A)):
                    rep["ideal"] = False
            if not V.contains(coords(H.antipode_map(f), A)):
                rep["antipode_stable"] = False
            if _escaping_legs(H, V, f):
                rep["coideal"] = False
        rep["ok"] = all(rep[k] for k in
                        ("ideal", "coideal", "antipode_stable", "augmented"))
        return rep

    def __repr__(self):
        return "HopfIdeal(dim=%d of %r)" % (self.dim, self.hopf)


def _delta_matrix(H, f):
    """Coproduct of f as a dict first-leg index -> second-leg coordinate row."""
    A = H.carrier
    t2 = H.t2()
    pos = _basis_pos(A)
    rows = {}
    for mono, c in H.delta_map(f).d.items():
        m1, m2 = t2.split_mono(mono)
        i = pos[m1]
        row = rows.get(i)
        if row is None:
            row = [0] * A.dim
            rows[i] = row
        row[pos[m2]] = c
    return rows


def _escaping_legs(H, V, f):
    """Row and column legs of delta(f) left over after reducing the second
    legs by V and then the first legs of what remains; empty iff delta(f)
    lies in V ox A + A ox V."""
    A = H.carrier
    rows = _delta_matrix(H, f)
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
    out = []
    surviving = {}
    for j, col in cols.items():
        r = V.residue(col)
        if any(r):
            out.append(from_coords(A, r))
            surviving[j] = True
    for i, row in reduced.items():
        keep = [c if surviving.get(j) else 0 for j, c in enumerate(row)]
        if any(keep):
            out.append(from_coords(A, keep))
    return out


def hopf_ideal_closure(H, seeds, max_rounds=None):
    """Hopf ideal containing the seeds, grown by forced leg adjunction.

    Rounds: take the ideal span; whenever a coproduct escapes
    V ox A + A ox V, adjoin both legs of the two-sided residual, and adjoin
    any antipode image that escapes; repeat until stable.  When the seeds
    already generate a Hopf ideal nothing is adjoined and the result is
    exactly that ideal; an escape that several different ideals could repair
    gets both of its legs, which may overshoot the minimum."""
    A = H.carrier
    for s in seeds:
        if H.counit_map(s) != 0:
            raise BadParams("closure seeds must lie in the augmentation ideal")
    V = _ideal_span_coords(A, [s for s in seeds if s.d])
    rounds = max_rounds or (A.dim + 1)
    for _ in range(rounds):
        add = []
        for vec in V.basis():
            f = from_coords(A, vec)
            add.extend(_escaping_legs(H, V, f))
            sf = H.antipode_map(f)
            if not V.contains(coords(sf, A)):
                add.append(sf)
        if not add:
            break
        old = V.dim
        V = _ideal_span_coords(A, [from_coords(A, v) for v in V.basis()] + add)
        if V.dim == old:
            break
    return HopfIdeal(H, V, gens=seeds)


def is_central(H, ideal):
    """Whether the subgroup scheme the ideal cuts out is central: compare
    (pi ox id) delta with (pi ox id) swap delta on the generators."""
    A = H.carrier
    Q = _requotient(A, ideal.basis_polys())
    T = Q.tensor(A)
    proj = {n: T.embed(_push(A.var(n), Q), 0) for n in A.vars}
    keep = {n: T.embed(A.var(n), 1) for n in A.vars}
    for nm in A.vars:
        dx = H.delta[nm]
        li = dict(proj)
        li.update({n + "'": keep[n] for n in A.vars})
        ri = dict(keep)
        ri.update({n + "'": proj[n] for n in A.vars})
        if apply_map(dx, li, T) != apply_map(dx, ri, T):
            return False
    return True


def is_normal(H, ideal):
    """Adjoint stability of the ideal: sum pi(j_(2)) ox S(j_(1)) j_(3) must
    reproduce pi(j) ox 1 ... i.e. vanish for j in the ideal since pi(j) = 0.
    Returns (ok, witness)."""
    A = H.carrier
    Q = _requotient(A, ideal.basis_polys())
    T = Q.tensor(A)
    names = A.vars
    for f in ideal.basis_polys():
        d2, _ = _coassoc_sides(H, H.delta_map(f))
        imgs = {n: T.embed(H.antipode[n], 1) for n in names}
        imgs.update({n + "'": T.embed(_push(A.var(n), Q), 0) for n in names})
        imgs.update({n + "''": T.embed(A.var(n), 1) for n in names})
        got = apply_map(d2, imgs, T)
        if got != 0:
            return False, f
    return True, None


def quotient_group(H, ideal, name=None):
    """Quotient by the normal subgroup the ideal cuts out: the coinvariants
    of the right translation coaction, re-presented on fresh generators."""
    ok, witness = is_normal(H, ideal)
    if not ok:
        raise NotNormal(witness)
    A = H.carrier
    F = H.field
    Q = _requotient(A, ideal.basis_polys())
    T = A.tensor(Q)
    posA = _basis_pos(A)
    posQ = _basis_pos(Q)
    tdim = A.dim * Q.dim
    proj = {n: T.embed(A.var(n), 0) for n in A.vars}
    proj.update({n + "'": T.embed(_push(A.var(n), Q), 1) for n in A.vars})
    columns = []
    for m in A.basis_monomials():
        f = A.poly({m: 1})
        img = apply_map(H.delta_map(f), proj, T) - T.embed(f, 0)
        vec = [0] * tdim
        for mono, c in img.d.items():
            m1, m2 = T.split_mono(mono)
            vec[posA[m1] * Q.dim + posQ[m2]] = c
        columns.append(vec)
    eqs = Subspace(F, A.dim)
    for row_idx in range(tdim):
        row = [columns[j][row_idx] for j in range(A.dim)]
        if any(row):
            eqs.insert(row)
    span = subspace_from(F, A.dim, eqs.right_kernel_basis())
    chosen = []
    sub = subalgebra_generated(A, [])
    idx = 0
    for vec in span.basis():
        f = from_coords(A, vec)
        if not sub.contains(A.to_vector(f)):
            idx += 1
            chosen.append(("Z%d" % idx, f - A.scalar(f.constant_term())))
            sub = subalgebra_generated(A, [el for _, el in chosen])
            if sub.dim == span.dim:
                break
    if sub.dim != span.dim:
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
    rename = {}
    names = list(A1.vars)
    for nm in A2.vars:
        new = nm
        while new in names:
            new += "2"
        rename[nm] = new
        names.append(new)
    shell = Algebra(A1.field, tuple(names), A1.orders + A2.orders,
                    A1.kinds + A2.kinds)
    t2 = shell.tensor(shell)
    delta, counit, anti = {}, {}, {}
    for nm in A1.vars:
        delta[nm] = apply_map(H1.delta[nm], {}, t2)
        counit[nm] = H1.counit[nm]
        anti[nm] = apply_map(H1.antipode[nm], {}, shell)
    ren = {nm: shell.var(rename[nm]) for nm in A2.vars}
    ren_t = {nm: t2.var(rename[nm]) for nm in A2.vars}
    ren_t.update({nm + "'": t2.var(rename[nm] + "'") for nm in A2.vars})
    for nm in A2.vars:
        delta[rename[nm]] = apply_map(H2.delta[nm], ren_t, t2)
        counit[rename[nm]] = H2.counit[nm]
        anti[rename[nm]] = apply_map(H2.antipode[nm], ren, shell)
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

    def tdict(f, t):
        return {t.split_mono(m): c for m, c in f.d.items()}

    t1, t2 = H1.t2(), H2.t2()
    for nm in A1.vars:
        nm2 = rename.get(nm, nm)
        if H1.counit[nm] != H2.counit[nm2]:
            return False
        if tdict(H1.delta[nm], t1) != tdict(H2.delta[nm2], t2):
            return False
        if dict(H1.antipode[nm].d) != dict(H2.antipode[nm2].d):
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
    a point is a tuple of generator images, each an R-coordinate tuple."""
    A = H.carrier
    F = H.field
    if A.dim > POINTS_DIM_LIMIT:
        raise SizeGuard("points_group carrier", A.dim, POINTS_DIM_LIMIT)
    if R.dim > POINTS_DIM_LIMIT:
        raise SizeGuard("points_group test algebra", R.dim, POINTS_DIM_LIMIT)
    if R.field != F:
        raise BadParams("test algebra must share the coefficient field")
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

    def rec(k, images):
        if k == len(names):
            if all(apply_map(g, images, R) == 0 for g in ideal_gens):
                points.append(tuple(tuple(coords(images[nm], R))
                                    for nm in names))
            return
        for r in cand[k]:
            images[names[k]] = r
            rec(k + 1, images)
        images.pop(names[k], None)

    rec(0, {})

    def as_images(pt):
        return {nm: from_coords(R, list(pt[i])) for i, nm in enumerate(names)}

    t2 = H.t2()

    def mul(p1, p2):
        im1, im2 = as_images(p1), as_images(p2)
        out = []
        for nm in names:
            val = R.zero()
            for mono, c in H.delta[nm].d.items():
                m1, m2 = t2.split_mono(mono)
                a = apply_map(A.poly({m1: 1}), im1, R)
                b = apply_map(A.poly({m2: 1}), im2, R)
                if a.d and b.d:
                    val = val + R.scalar(c) * a * b
            out.append(tuple(coords(val, R)))
        return tuple(out)

    def inv(pt):
        im = as_images(pt)
        return tuple(tuple(coords(apply_map(H.antipode[nm], im, R), R))
                     for nm in names)

    identity = tuple(tuple(coords(R.scalar(H.counit[nm]), R)) for nm in names)
    return GroupTable(H, R, points, mul, inv, identity)


def _all_elements(R):
    F = R.field
    n = R.dim
    out = []
    vec = [0] * n

    def rec(k):
        if k == n:
            out.append(from_coords(R, list(vec)))
            return
        for c in range(F.q):
            vec[k] = c
            rec(k + 1)
        vec[k] = 0

    rec(0)
    return out


def enumerate_subgroups(H):
    """All Hopf ideals of the carrier: exhaustive over the subspaces of the
    augmentation ideal.  GF(2), nil generators, dimension at most 8."""
    A = H.carrier
    F = H.field
    if F.q != 2:
        raise SizeGuard("enumerate_subgroups field size", F.q, 2)
    if A.dim > ENUM_SUBGROUP_DIM_LIMIT:
        raise SizeGuard("enumerate_subgroups carrier", A.dim,
                        ENUM_SUBGROUP_DIM_LIMIT)
    if any(k != "nil" for k in A.ambient.kinds):
        raise BadParams("enumerate_subgroups expects nil generators")
    n = A.dim
    one_pos = _basis_pos(A)[next(iter(A.one().d))]
    aug_positions = [i for i in range(n) if i != one_pos]
    m = len(aug_positions)
    mul_mats = []
    for nm in A.vars:
        x = A.var(nm)
        mul_mats.append([_pack(coords(x * A.poly({mono: 1}), A))
                         for mono in A.basis_monomials()])
    s_mat = [_pack(coords(H.antipode_map(A.poly({mono: 1})), A))
             for mono in A.basis_monomials()]
    tab = H.delta_table()

    spread = [_spread(r, aug_positions) for r in range(1 << m)]
    out = []
    for rows in _all_echelon_bases(m):
        masks = [spread[r] for r in rows]
        V = subspace_from(F, n, masks)
        ok = True
        for v in masks:
            for mat in mul_mats:
                if not V.contains(_apply_mask_matrix(mat, v)):
                    ok = False
                    break
            if not ok:
                break
            if not V.contains(_apply_mask_matrix(s_mat, v)):
                ok = False
                break
            if not _mask_coideal(tab, V, v):
                ok = False
                break
        if ok:
            out.append(HopfIdeal(H, V))
    return out


def _spread(mask, positions):
    out = 0
    for k, p in enumerate(positions):
        if (mask >> k) & 1:
            out |= 1 << p
    return out


def _apply_mask_matrix(mat, vmask):
    out = 0
    i = 0
    while vmask:
        if vmask & 1:
            out ^= mat[i]
        vmask >>= 1
        i += 1
    return out


def _mask_coideal(tab, V, vmask):
    rows = {}
    i = 0
    v = vmask
    while v:
        if v & 1:
            for (a, b), c in tab[i].items():
                if c:
                    rows[a] = rows.get(a, 0) ^ (1 << b)
        v >>= 1
        i += 1
    reduced = {}
    for a, row in rows.items():
        r = V.residue(row)
        if r:
            reduced[a] = r
    if not reduced:
        return True
    cols = {}
    for a, row in reduced.items():
        j = 0
        while row:
            if row & 1:
                cols[j] = cols.get(j, 0) ^ (1 << a)
            row >>= 1
            j += 1
    for col in cols.values():
        if not V.contains(col):
            return False
    return True


def _all_echelon_bases(m):
    """All reduced echelon bases over GF(2) on m coordinates, one per
    subspace (largest-index pivots, free entries below the pivot)."""
    for pivots in range(1 << m):
        plist = [i for i in range(m) if (pivots >> i) & 1]
        free_slots = []
        for l in plist:
            for j in range(l):
                if not (pivots >> j) & 1:
                    free_slots.append((l, j))
        for assign in range(1 << len(free_slots)):
            rows = {l: 1 << l for l in plist}
            for t, (l, j) in enumerate(free_slots):
                if (assign >> t) & 1:
                    rows[l] |= 1 << j
            yield [rows[l] for l in plist]


def enumerate_morphisms(H1, H2, shape=None, iso_only=False):
    """All Hopf algebra maps A(H1) -> A(H2) whose generator images are
    counit(x).1 plus linear combinations of the given shape elements
    (name -> list); the default shape is a basis of the augmentation ideal
    of H2."""
    A1, A2 = H1.carrier, H2.carrier
    F = H1.field
    if shape is None:
        aug = [from_coords(A2, v) for v in H2.aug_subspace().basis()]
        shape = {nm: aug for nm in A1.vars}
    count = 1
    for nm in A1.vars:
        count *= F.q ** len(shape[nm])
    if count > ENUM_MORPHISM_LIMIT:
        raise SizeGuard("enumerate_morphisms candidates", count,
                        ENUM_MORPHISM_LIMIT)
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
                if not iso_only or f.is_bijective():
                    out.append(f)
            return
        base = A2.scalar(H1.counit[names[k]])
        for el in combos(shape[names[k]]):
            images[names[k]] = base + el
            rec(k + 1, images)
        images.pop(names[k], None)

    rec(0, {})
    return out


def find_isomorphism(H1, H2, shape=None):
    for f in enumerate_morphisms(H1, H2, shape=shape, iso_only=True):
        return f
    return None


class DualHopf(object):
    """The dual Hopf algebra as structure constants on the dual basis.

    Multiplying functionals is convolution (the transpose of the carrier
    coproduct); their coproduct is the transpose of the carrier product.
    The dual of a noncocommutative Hopf algebra is a noncommutative ring,
    so this stays a structure-constant object rather than a carrier."""

    def __init__(self, hopf):
        self.hopf = hopf
        self.field = hopf.field
        self.dim = hopf.dim
        A = hopf.carrier
        self._tab = hopf.delta_table()
        basis = A.basis_monomials()
        self._mult_coords = {}
        for i, mi in enumerate(basis):
            for j, mj in enumerate(basis):
                prod = A.poly({mi: 1}) * A.poly({mj: 1})
                self._mult_coords[(i, j)] = coords(prod, A)
        self._eps = hopf._eps_vector()
        self._one = coords(A.one(), A)

    def unit(self):
        return list(self._eps)

    def counit(self, u):
        F = self.field
        acc = 0
        for c, o in zip(u, self._one):
            if c and o:
                acc = F.add(acc, F.mul(c, o))
        return acc

    def conv(self, u, v):
        F = self.field
        out = [0] * self.dim
        for k in range(self.dim):
            acc = 0
            for (i, j), c in self._tab[k].items():
                if u[i] and v[j]:
                    acc = F.add(acc, F.mul(c, F.mul(u[i], v[j])))
            out[k] = acc
        return out

    def is_commutative(self):
        for i in range(self.dim):
            ei = [0] * self.dim
            ei[i] = 1
            for j in range(i + 1, self.dim):
                ej = [0] * self.dim
                ej[j] = 1
                if self.conv(ei, ej) != self.conv(ej, ei):
                    return False
        return True

    def primitive_basis(self):
        """Functionals with x(ab) = x(a) eps(b) + eps(a) x(b): the Lie
        algebra of the group scheme the carrier presents."""
        F = self.field
        eqs = Subspace(F, self.dim)
        for (i, j), prod in self._mult_coords.items():
            row = list(prod)
            row[i] = F.sub(row[i], self._eps[j])
            row[j] = F.sub(row[j], self._eps[i])
            if any(row):
                eqs.insert(row)
        return eqs.right_kernel_basis()

    def ppower(self, u):
        acc = u
        for _ in range(self.field.p - 1):
            acc = self.conv(acc, u)
        return acc

    def bracket(self, u, v):
        F = self.field
        return [F.sub(x, y) for x, y in zip(self.conv(u, v), self.conv(v, u))]


def dual_hopf(H):
    return DualHopf(H)


def primitives(dual):
    """Lie algebra data of the dual: (basis, bracket, p-power operation)."""
    return dual.primitive_basis(), dual.bracket, dual.ppower
