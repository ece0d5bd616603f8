"""Coactions on the affine line and their projective closures.

A coaction of a group carrier A on the line is held through the image of
the coordinate, rho(X) = sum_i a_i X^i with Laurent degrees allowed, as
one element ``series`` of L = A ox k[X, X^-1] (``HopfAlgebra._line``,
built once per group).  Faithfulness, the chart change to the patch at
infinity and the fractional-linear matrix realization are Poly
arithmetic in L, with inverses from ``talg.invert_unit``; nothing is
evaluated at points.  The degree dict {i: a_i} is how a coaction is
given and read back.
"""

from .errors import BadParams, NonUnit, NotFractionalLinear, NotInvertible
from .gf import Field
from .hopf import (Failure, Morphism, _report, _require_ok, _tangent_image,
                   hopf_ideal_closure, restricted_subalgebras)
from .talg import Poly, _power, invert_unit, map_leg
from .zoo import D, PGL2_kerF, SL2_kerF, alpha, mu, semidirect


def _field(field):
    return field if field is not None else Field(2)


class Coaction(object):
    """The image rho(X) of the line coordinate under a coaction.

    ``series`` is rho(X) in the group's line ring A ox k[X, X^-1]; pass
    it, or the degree dict {i: a_i} that ``rho`` reads back (zero
    coefficients dropped, degrees ascending).  Construction checks no
    axiom; coaction_verify does, so deliberately broken instances can be
    studied.
    """

    def __init__(self, group, rho):
        self.group = group
        L = group._line()
        if isinstance(rho, Poly):
            if rho.alg is not L:
                raise BadParams("series outside the group's line ring")
            self.series = rho
            return
        A, X = group.carrier, group._line(0)
        d = {}
        for i, f in rho.items():
            if f.alg is not A:
                raise BadParams("coefficient outside the group's carrier")
            # distinct degrees share no key
            d.update(L.elem(f, X.monomial((int(i),))).d)
        self.series = Poly(L, d)

    @property
    def rho(self):
        return _degrees(self.series)

    def coefficient(self, i):
        return self.rho.get(i, self.group.carrier.zero())

    def __repr__(self):
        rho = self.rho
        if not rho:
            return "Coaction(0)"
        return "Coaction(%s)" % " + ".join(
            "(%s)*X^%d" % (rho[i], i) for i in sorted(rho, reverse=True))


def _degree(L, m):
    """The X-degree of the key m of a line ring: X is its last variable."""
    return L.exponent(m, -1)


def _degrees(s):
    """The degree dict {i: a_i} of s in a line ring, degrees ascending."""
    L = s.alg
    A, X = L.factors
    out = {}
    for m, c in s.d.items():
        a, x = L.split_mono(m)
        out.setdefault(x, {})[a] = c
    # X-leg keys sort as their degrees do
    return {X.exponent(x, 0): Poly(A, out[x]) for x in sorted(out)}


def _inverse(s):
    """s^-1 in a line ring, or NotInvertible."""
    try:
        return invert_unit(s)
    except NonUnit as e:
        raise NotInvertible("not a Laurent unit: %s" % e)


def laurent_invert(H, r):
    """Inverse of rho, given as a degree dict, in A[X, X^-1]: exactly one
    coefficient may survive the counit, and the rest are nilpotent."""
    return _degrees(_inverse(Coaction(H, r).series))


# -- the axioms -------------------------------------------------------------

def coaction_verify(c):
    """Counit and coassociativity of a line coaction, checked degreewise.

    Counit: applying the counit to every coefficient must return the bare
    coordinate.  Coassociativity: substituting rho into the X-leg of rho,
    sum a_i ox rho^i, must agree with the coefficient comultiplication,
    sum delta(a_i) ox X^i, in A ox A ox k[X, X^-1].  The groups here act
    from the left, so a residual is reported with its legs exchanged, in
    A ox A.  A Failure's ``where`` is its X-degree, or None (residual:
    the series) when a series with negative degrees is no Laurent unit.
    """
    H = c.group
    s = c.series
    line = H._line(0)
    miss = map_leg(s, 0, H._eps_leg, line) - line.var("X")
    # keys sort as their degrees do
    failures = [Failure("counit", _degree(line, m), line.scalar(code))
                for m, code in sorted(miss.d.items())]
    # the powers of s, and of its inverse if it has negative degrees
    powers = {1: s.d}
    if any(_degree(s.alg, m) < 0 for m in s.d):
        try:
            powers[-1] = _inverse(s).d
        except NotInvertible:
            failures.append(Failure("well_defined", None, s))
            return _report(failures)
    target = H._line(2)
    lhs = map_leg(s, 1, lambda leg: _power(powers, _degree(line, leg), s.alg),
                  target)
    rhs = map_leg(s, 0, H.delta_mono, target)
    t2 = H.t2()
    by_degree = {}
    for m, code in ({} if lhs == rhs else (lhs - rhs).d).items():
        m1, m2, x = target.split_mono(m)
        by_degree.setdefault(_degree(line, x), {})[
            t2.join_mono((m2, m1))] = code
    failures += [Failure("coassoc", j, Poly(t2, by_degree[j]))
                 for j in sorted(by_degree)]
    return _report(failures)


# -- faithfulness ------------------------------------------------------------

def action_kernel(c):
    """Hopf ideal of everything the action cannot distinguish: generated
    by the off-degree-one coefficients together with a_1 - 1."""
    H = c.group
    A = H.carrier
    seeds = [f for i, f in c.rho.items() if i != 1]
    seeds.append(c.coefficient(1) - A.one())
    return hopf_ideal_closure(H, [s for s in seeds if s.d])


def is_faithful(c):
    return action_kernel(c).dim == c.group.dim - 1


def restrict_coaction(c, q):
    """Coaction of the subgroup presented by q's target, by pushing the
    coefficients through the carrier surjection q."""
    if q.source.carrier is not c.group.carrier:
        raise BadParams("restriction map must start at the acting group")
    return Coaction(q.target, {i: q.map(f) for i, f in c.rho.items()})


# -- the standard family -----------------------------------------------------

def standard_coaction(n, l, with_S=True, field=None):
    """X -> W X + W^2 S X^2 + T for the semidirect catalogue groups.

    W = 1 + U (just 1 when l = 0, no torus factor); the square term is
    dropped when with_S is false and the unipotent part is alpha(n).
    Verified before returning.
    """
    F = _field(field)
    if F.p != 2:
        raise BadParams("the line coaction family lives in characteristic 2")
    if n < 1 and not with_S:
        raise BadParams("nothing acts: need n >= 1 or the S generator")
    base = D(n, "A", F) if with_S else alpha(n, F)
    if l == 0:
        G = base
    else:
        weights = {"S": -1, "T": 1} if with_S else {"T": 1}
        if n == 0:
            weights = {"S": -1}
        G = semidirect(base, mu(l, F), weights)
    A = G.carrier
    W = A.one() + A.var("U") if l else A.one()
    rho = {1: W}
    if n >= 1:
        rho[0] = A.var("T")
    if with_S:
        rho[2] = W ** 2 * A.var("S")
    c = Coaction(G, rho)
    _require_ok(coaction_verify(c), "coaction")
    return c


# -- the patch at infinity ----------------------------------------------------

def extends_to_p1(c):
    """Invert rho(X) in the Laurent ring; the coaction glues over the
    projective line exactly when no positive X-degree survives, and the
    second chart is the inverse read in Y = 1/X (re-verified)."""
    H = c.group
    inv = _inverse(c.series)
    rinv = _degrees(inv)
    bad = sorted(i for i in rinv if i > 0)
    if bad:
        return {"extends": False, "chart2": None,
                "witness": {"degree": bad[0], "coefficient": rinv[bad[0]]}}
    # X^i -> X^-i on the X leg of the inverse
    X = H._line(0)
    chart2 = Coaction(H, map_leg(
        inv, 1, lambda x: X.monomial((-X.exponent(x, 0),)).d, H._line()))
    _require_ok(coaction_verify(chart2), "chart2")
    return {"extends": True, "chart2": chart2, "witness": None}


def chart2_closed_form(c):
    """The predicted inverse for the standard family, as a Laurent map:
    S + u^-1 + T^2 S u^-2 with u = T + WX (terms with absent generators
    drop out).  Returns the degree dict for comparison against the
    actual inverse."""
    L = c.group._line()
    A = c.group.carrier
    S = L.var("S") if "S" in A.vars else L.zero()
    T = L.var("T") if "T" in A.vars else L.zero()
    W = 1 + L.var("U") if "U" in A.vars else L.one()
    uinv = (T + W * L.var("X'")) ** -1
    return _degrees(S + uinv + T ** 2 * S * uinv ** 2)


def chart2_matches_closed_form(c):
    return laurent_invert(c.group, c.rho) == chart2_closed_form(c)


# -- fractional-linear realization --------------------------------------------

class MobiusMatrix(object):
    """2x2 matrix ((a, b), (c, d)) over the carrier, normalized to d = 1,
    presenting rho(X) = (aX + b) * (cX + d)^-1."""

    def __init__(self, group, entries):
        self.group = group
        self.entries = entries

    def det(self):
        (a, b), (c, d) = self.entries
        return a * d - b * c

    def __repr__(self):
        (a, b), (c, d) = self.entries
        return "MobiusMatrix(((%s, %s), (%s, %s)))" % (a, b, c, d)


def mobius_matrix(c):
    """Solve the fractional-linear form of an extending coaction.

    Normalization d = 1, b = a_0; the lower-left entry comes from the
    degree-two relation a_2 + c a_1 = 0 and the whole system is then
    checked at once by multiplying back.
    """
    H = c.group
    A = H.carrier
    a1 = c.coefficient(1)
    if not H.counit_map(a1):
        raise NotFractionalLinear("the degree-one coefficient is not a unit")
    for i, f in c.rho.items():
        if i < 0:
            raise NotFractionalLinear("negative degree %d" % i)
        if i != 1 and H.counit_map(f):
            raise NotFractionalLinear("coefficient at degree %d is not "
                                      "nilpotent" % i)
    b = c.coefficient(0)
    cc = -(c.coefficient(2) * invert_unit(a1))
    a = a1 + cc * b
    L = H._line()
    X = L.var("X'")
    if c.series * (L.embed(cc, 0) * X + 1) != L.embed(a, 0) * X + L.embed(b, 0):
        raise NotFractionalLinear("higher-degree coefficients do not fit "
                                  "a fractional-linear form")
    M = MobiusMatrix(H, ((a, b), (cc, A.one())))
    if not H.counit_map(M.det()):
        raise NotFractionalLinear("determinant is not a unit")
    return M


def coaction_from_matrix(H, entries):
    """rho(X) = (aX + b) * (cX + d)^-1 for a matrix over the carrier."""
    L = H._line()
    X = L.var("X'")
    (a, b), (c, d) = [[L.embed(f, 0) for f in row] for row in entries]
    return Coaction(H, (a * X + b) * _inverse(c * X + d))


def pgl2_morphism(M, n):
    """The Morphism PGL2_kerF(n) -> M.group sending the chart coordinates
    a, b, c to a/d - 1, b/d, c/d.  ``morphism_check`` of it is ok exactly
    when the matrix is a homomorphism to PGL2 that lands in the height-n
    Frobenius kernel; a matrix whose entrywise p^n-th power is not scalar
    breaks ``well_defined``."""
    (a, b), (c, d) = M.entries
    dinv = invert_unit(d)
    return Morphism(PGL2_kerF(n, M.group.field), M.group,
                    {"a": a * dinv - 1, "b": b * dinv, "c": c * dinv})


def sl2_to_pgl2(n, field=None):
    """pi_n: SL2_kerF(n) -> PGL2_kerF(n), a matrix to its class: the
    ``pgl2_morphism`` of ((1 + u11, u12), (u21, 1 + u22)).  Its kernel
    is mu2 in characteristic 2 and trivial otherwise."""
    G = SL2_kerF(n, _field(field))
    u = G.carrier.var
    return pgl2_morphism(MobiusMatrix(G, ((u("u11") + 1, u("u12")),
                                          (u("u21"), u("u22") + 1))), n)


def lifts_to_sl2(n, field=None):
    """Which restricted subalgebras of pgl2 lift along pi_n
    (``sl2_to_pgl2``), at height one.

    Returns {"entries", "sl2"}: one {"subalgebra", "lift"} entry per
    restricted subalgebra of Lie(PGL2_kerF(n)), "lift" being the first
    restricted subalgebra of Lie(SL2_kerF(n)) that d pi_n
    (``tangent_map``) maps isomorphically onto it, or None; "sl2" is the
    walk of Lie(SL2_kerF(n)) searched.  Both are Subspaces of tangent
    vectors from ``restricted_subalgebras``.  For odd p the report also
    holds "pi_bijective" (``Morphism.is_bijective``: the same rank of
    d pi_n, on all of sl2), so that every subgroup of PGL2_kerF(n) lifts.
    """
    pi = sl2_to_pgl2(n, field)

    def key(h):
        return tuple(map(tuple, h.basis()))

    ups, lifts = restricted_subalgebras(pi.target), {}
    for h in ups:
        image = _tangent_image(pi, h.basis())
        if image.dim == h.dim:
            lifts.setdefault(key(image), h)
    rep = {"entries": [{"subalgebra": g, "lift": lifts.get(key(g))}
                       for g in restricted_subalgebras(pi.source)],
           "sl2": ups}
    if pi.source.field.p != 2:
        rep["pi_bijective"] = pi.is_bijective()
    return rep
