"""Coactions on the affine line and their projective closures.

A coaction of a group carrier A on the line is stored through the image
of the coordinate: rho(X) = sum_i a_i X^i as a sparse map from X-degree
to a coefficient in A, Laurent degrees allowed.  Faithfulness, the chart
change to the patch at infinity, and the fractional-linear matrix
realization are all exact arithmetic on these dictionaries; nothing is
evaluated at points.
"""

from .errors import (BadParams, NotFractionalLinear, NotInvertible,
                     VerifyError)
from .gf import Field
from .hopf import _swap_legs, hopf_ideal_closure
from .talg import invert_unit
from .zoo import D, alpha, mu, semidirect


def _field(field):
    return field if field is not None else Field(2)


class Coaction(object):
    """The image rho(X) of the line coordinate under a coaction.

    rho maps X-degree -> coefficient in the group carrier.  Construction
    only normalizes the dictionary; the axioms are checked separately by
    coaction_verify, so deliberately broken instances can be studied.
    """

    def __init__(self, group, rho):
        self.group = group
        self.rho = {int(i): f for i, f in rho.items() if f.d}

    def coefficient(self, i):
        return self.rho.get(i, self.group.carrier.zero())

    def __repr__(self):
        if not self.rho:
            return "Coaction(0)"
        parts = []
        for i in sorted(self.rho, reverse=True):
            parts.append("(%s)*X^%d" % (self.rho[i], i))
        return "Coaction(%s)" % " + ".join(parts)


# -- Laurent arithmetic over a carrier -------------------------------------

def _lclean(r):
    return {i: f for i, f in r.items() if f.d}


def _ladd(r1, r2):
    out = dict(r1)
    for i, f in r2.items():
        g = out.get(i)
        out[i] = f if g is None else g + f
    return _lclean(out)


def _lmul(r1, r2):
    out = {}
    for i, f in r1.items():
        for j, g in r2.items():
            h = f * g
            if not h.d:
                continue
            k = i + j
            s = out.get(k)
            out[k] = h if s is None else s + h
    return _lclean(out)


def _lscale(r, f):
    return _lclean({i: g * f for i, g in r.items()})


def _lpow(A, r, e, rinv=None):
    if e < 0:
        if rinv is None:
            raise NotInvertible("negative power of a non-inverted series")
        return _lpow(A, rinv, -e)
    out = {0: A.one()}
    for _ in range(e):
        out = _lmul(out, r)
    return out


def laurent_invert(H, r):
    """Inverse of rho in A[X, X^-1] for a local carrier A.

    Exactly one coefficient may survive the counit (the unit slot); the
    rest are nilpotent and the geometric series against them terminates.
    """
    A = H.carrier
    r = _lclean(r)
    units = [i for i in r if H.counit_map(r[i])]
    if len(units) != 1:
        raise NotInvertible("need exactly one unit coefficient, found %d"
                            % len(units))
    d = units[0]
    lead_inv = invert_unit(r[d])
    n = {}
    for i, f in r.items():
        g = f * lead_inv
        if i == d:
            g = g - A.one()
        if g.d:
            n[i - d] = g
    inv = {0: A.one()}
    term = {0: A.one()}
    for _ in range(A.dim + 1):
        term = _lscale(_lmul(term, n), A.zero() - A.one())
        if not term:
            break
        inv = _ladd(inv, term)
    if term:
        raise NotInvertible("series against the nilpotent part did not "
                            "terminate")
    return _lclean({i - d: f * lead_inv for i, f in inv.items()})


# -- the axioms -------------------------------------------------------------

def coaction_verify(c):
    """Counit and coassociativity of a line coaction, checked degreewise.

    Counit: applying the counit to every coefficient must return the bare
    coordinate.  Coassociativity: substituting rho into its own X-legs
    must agree with the coefficient comultiplication.  The groups here
    act from the left and the coefficients ride on the right leg, so the
    matching comultiplication is the leg-swapped one; for a commutative
    group the swap is invisible.
    """
    H = c.group
    A = H.carrier
    F = H.field
    failures = []
    degrees = set(c.rho) | {1}
    for i in sorted(degrees):
        want = 1 if i == 1 else 0
        got = H.counit_map(c.coefficient(i))
        if got != want:
            failures.append({"axiom": "counit", "degree": i,
                             "residual": F.sub(got, want)})
    rinv = None
    if any(i < 0 for i in c.rho):
        try:
            rinv = laurent_invert(H, c.rho)
        except NotInvertible:
            failures.append({"axiom": "well_defined", "degree": None,
                             "residual": "rho is not a Laurent unit"})
            return {"ok": False, "failures": failures}
    t2 = H.t2()
    lhs = {}
    for i, f in c.rho.items():
        for j, g in _lpow(A, c.rho, i, rinv).items():
            term = t2.elem(g, f)
            s = lhs.get(j)
            lhs[j] = term if s is None else s + term
    rhs = {i: _swap_legs(H.delta_map(f)) for i, f in c.rho.items()}
    for j in sorted(set(lhs) | set(rhs)):
        l = lhs.get(j, t2.zero())
        r = rhs.get(j, t2.zero())
        if l != r:
            failures.append({"axiom": "coassoc", "degree": j,
                             "residual": l - r})
    return {"ok": not failures, "failures": failures}


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
    rep = coaction_verify(c)
    if not rep["ok"]:
        raise VerifyError("coaction", rep["failures"][0])
    return c


# -- the patch at infinity ----------------------------------------------------

def extends_to_p1(c):
    """Invert rho(X) in the Laurent ring; the coaction glues over the
    projective line exactly when no positive X-degree survives, and the
    second chart is the inverse read in Y = 1/X (re-verified)."""
    H = c.group
    rinv = laurent_invert(H, c.rho)
    bad = sorted(i for i in rinv if i > 0)
    if bad:
        return {"extends": False, "chart2": None,
                "witness": {"degree": bad[0], "coefficient": rinv[bad[0]]}}
    chart2 = Coaction(H, {-i: f for i, f in rinv.items()})
    rep = coaction_verify(chart2)
    if not rep["ok"]:
        raise VerifyError("chart2", rep["failures"][0])
    return {"extends": True, "chart2": chart2, "witness": None}


def chart2_closed_form(c):
    """The predicted inverse for the standard family, as a Laurent map:
    S + u^-1 + T^2 S u^-2 with u = T + WX (terms with absent generators
    drop out).  Returns the dictionary for comparison against the actual
    inverse."""
    H = c.group
    A = H.carrier
    S = A.var("S") if "S" in A.vars else A.zero()
    T = A.var("T") if "T" in A.vars else A.zero()
    W = A.one() + A.var("U") if "U" in A.vars else A.one()
    u = _lclean({0: T, 1: W})
    uinv = laurent_invert(H, u)
    out = _lclean({0: S})
    out = _ladd(out, uinv)
    out = _ladd(out, _lscale(_lmul(uinv, uinv), T ** 2 * S))
    return out


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
    cc = A.zero() - c.coefficient(2) * invert_unit(a1)
    a = a1 + cc * b
    prod = _lmul(c.rho, _lclean({1: cc, 0: A.one()}))
    if prod != _lclean({1: a, 0: b}):
        raise NotFractionalLinear("higher-degree coefficients do not fit "
                                  "a fractional-linear form")
    M = MobiusMatrix(H, ((a, b), (cc, A.one())))
    if not H.counit_map(M.det()):
        raise NotFractionalLinear("determinant is not a unit")
    return M


def coaction_from_matrix(H, entries):
    """rho(X) = (aX + b) * (cX + d)^-1 for a matrix over the carrier."""
    (a, b), (c, d) = entries
    denom = _lclean({1: c, 0: d})
    num = _lclean({1: a, 0: b})
    return Coaction(H, _lmul(num, laurent_invert(H, denom)))


def pgl2_morphism_check(M):
    """Whether the matrix entries present a homomorphism to PGL2 and land
    in the Frobenius kernel.

    Homomorphism mod scalars: the entrywise comultiplication must equal
    the tensor-square matrix product up to one unit factor, solved from
    the lower-right entry.  Frobenius kernel: the entrywise p-th power
    matrix must be a scalar multiple of the identity.
    """
    H = M.group
    p = H.field.p
    t2 = H.t2()
    ent = M.entries
    dm = [[H.delta_map(ent[i][j]) for j in (0, 1)] for i in (0, 1)]
    mm = [[sum((t2.embed(ent[i][k], 0) * t2.embed(ent[k][j], 1)
                for k in (0, 1)), t2.zero()) for j in (0, 1)]
          for i in (0, 1)]
    lam = dm[1][1] * invert_unit(mm[1][1])
    hom = all(dm[i][j] == mm[i][j] * lam for i in (0, 1) for j in (0, 1))
    power = [[ent[i][j] ** p for j in (0, 1)] for i in (0, 1)]
    scalar = (not power[0][1].d and not power[1][0].d
              and power[0][0] == power[1][1])
    return {"is_homomorphism_mod_scalars": hom, "lands_in_kerF": scalar,
            "scalar_factor": lam, "power_matrix": power}
