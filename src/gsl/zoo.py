"""Catalogue of small commutative Hopf algebras and the checks that
relate them.

Every constructor returns a HopfAlgebra on a pinned presentation, so
tests elsewhere can compare against these by literal structure-map
equality rather than up to isomorphism.  Only the constructors that
derive a group from another one (kerFV, H_unip, semidirect) verify the
Hopf axioms before returning; alpha, mu, D, H, witt2, cocycle_ext,
SL2_kerF, PGL2_kerF and pullback write the structure maps down without
checking them, and hopf_verify checks them on demand.  The Frobenius
kernels of SL2 and PGL2 live on free charts, k[x,y,z]/(x^q, y^q, z^q):
SL2_kerF solves det = 1 for u22, which stays readable as an alias of
the carrier, and PGL2_kerF divides by x22, so neither needs a quotient.  The second half
of the module holds the computations that are run against the
catalogue: presentation changes, scalar rescaling maps, coactions of
the multiplicative kernels on the additive ones, exhaustive morphism
and coaction searches, and the fixed-ring pipeline that extracts a
two-generator subgroup out of a rank-four carrier.

Conventions.  Fields default to GF(2).  Scalars are field codes (ints).
Group parameters named n or l are heights: the carrier dimension is a
power p**n.  Reports are plain dicts; a constructor raises only when
the requested object cannot exist, while a check records what it saw.
"""

from math import comb

from .errors import (BadParams, IdentityFailed, NotAnAction, ParseError,
                     SizeGuard, VerifyError)
from .gf import Field
from .talg import (Algebra, Poly, _mono_images, _power, _sum_images,
                   apply_map, invert_unit, map_leg, multiply_legs,
                   quotient_algebra, weight_decomposition)
from .hopf import (SEARCH_LIMIT, Failure, HopfAlgebra, Morphism, _combos,
                   _relation_polys, _report, _require_ok, _require_on_gens,
                   closed_subgroup, enumerate_morphisms, hopf_product,
                   hopf_verify, kernel_subgroup, morphism_check,
                   presentations_equal, primitive_elements,
                   subgroup_from_elements)


def _field(field):
    return field if field is not None else Field(2)


# ---------------------------------------------------------------------------
# constructors


def alpha(n, field=None):
    """Additive kernel of height n: k[T]/(T^(p^n)) with T primitive."""
    F = _field(field)
    if n < 1:
        raise BadParams("alpha needs n >= 1")
    A = Algebra(F, ("T",), (F.p ** n,))
    t2 = A.tensor(A)
    T, T_ = t2.embed(A.var("T"), 0), t2.embed(A.var("T"), 1)
    return HopfAlgebra(A, {"T": T + T_}, {"T": 0}, {"T": -A.var("T")},
                       name="alpha(%d)" % n)


def mu(l, field=None):
    """Multiplicative kernel of height l in the coordinate U = (unit) - 1,
    so U is nilpotent and delta(U) = U x 1 + 1 x U + U x U."""
    F = _field(field)
    if l < 1:
        raise BadParams("mu needs l >= 1")
    A = Algebra(F, ("U",), (F.p ** l,))
    t2 = A.tensor(A)
    U, U_ = t2.embed(A.var("U"), 0), t2.embed(A.var("U"), 1)
    anti = invert_unit(A.one() + A.var("U")) - A.one()
    return HopfAlgebra(A, {"U": U + U_ + U * U_}, {"U": 0}, {"U": anti},
                       name="mu(%d)" % l)


def D(n, pres="A", field=None):
    """Height-(1, n) two-generator family: k[S,T]/(S^p, T^(p^n)) with S
    primitive and a one-sided S x T^p tail on delta(T).

    pres "A" puts the tail on the left leg, "B" on the right; the two
    are exchanged by d_presentation_iso.  n = 0 degenerates to the
    single generator S.
    """
    F = _field(field)
    if pres not in ("A", "B"):
        raise BadParams("presentation tag must be A or B")
    if n < 0:
        raise BadParams("D needs n >= 0")
    p = F.p
    if n == 0:
        A = Algebra(F, ("S",), (p,))
        t2 = A.tensor(A)
        S, S_ = t2.embed(A.var("S"), 0), t2.embed(A.var("S"), 1)
        return HopfAlgebra(A, {"S": S + S_}, {"S": 0}, {"S": -A.var("S")},
                           name="D(0,pres%s)" % pres)
    A = Algebra(F, ("S", "T"), (p, p ** n))
    t2 = A.tensor(A)
    S, S_ = t2.embed(A.var("S"), 0), t2.embed(A.var("S"), 1)
    T, T_ = t2.embed(A.var("T"), 0), t2.embed(A.var("T"), 1)
    tail = S * T_ ** p if pres == "A" else T ** p * S_
    delta = {"S": S + S_, "T": T + T_ + tail}
    # antipode: S -> -S and T -> -T + S T^p clears the tail; checked by
    # the constructor, not assumed
    anti = {"S": -A.var("S"),
            "T": -A.var("T") + A.var("S") * A.var("T") ** p}
    return HopfAlgebra(A, delta, {"S": 0, "T": 0}, anti,
                       name="D(%d,pres%s)" % (n, pres))


def H(a, n, field=None):
    """One-generator height-n family with a scalar-weighted symmetric
    tail: delta(T) = T x 1 + 1 x T + a T^(p^(n-1)) x T^p."""
    F = _field(field)
    if n < 1:
        raise BadParams("H needs n >= 1")
    if not 0 <= a < F.q:
        raise BadParams("scalar a out of range")
    p = F.p
    A = Algebra(F, ("T",), (p ** n,))
    t2 = A.tensor(A)
    T, T_ = t2.embed(A.var("T"), 0), t2.embed(A.var("T"), 1)
    tail = (T ** (p ** (n - 1)) * T_ ** p) * t2.scalar(a)
    # the plain sign flip is an antipode only while the tail power
    # T^(p^(n-1)+p) dies in the truncation; otherwise HopfAlgebra
    # solves it
    if a == 0 or p ** (n - 1) + p >= p ** n:
        anti = {"T": -A.var("T")}
    else:
        anti = None
    return HopfAlgebra(A, {"T": T + T_ + tail}, {"T": 0}, anti,
                       name="H(a=%s,n=%d)" % (F.scalar_str(a), n))


def witt2(field=None):
    """Length-two Witt vector kernel: k[T0,T1]/(T0^(p^2), T1^(p^2)) with
    the carry term on delta(T1)."""
    F = _field(field)
    p = F.p
    A = Algebra(F, ("T0", "T1"), (p ** 2, p ** 2))
    t2 = A.tensor(A)
    T0, T0_ = t2.embed(A.var("T0"), 0), t2.embed(A.var("T0"), 1)
    T1, T1_ = t2.embed(A.var("T1"), 0), t2.embed(A.var("T1"), 1)
    carry = t2.zero()
    for i in range(1, p):
        c = (-(comb(p, i) // p)) % p
        carry = carry + (T0 ** i * T0_ ** (p - i)) * t2.scalar(c)
    delta = {"T0": T0 + T0_, "T1": T1 + T1_ + carry}
    return HopfAlgebra(A, delta, {"T0": 0, "T1": 0}, None, name="witt2")


def kerFV(field=None):
    """Kernel of the endomorphism (frobenius + shift) of witt2.

    The carrier collapses to one generator; over GF(2) the presentation
    comes out literally equal to H(1,2), which the tests pin down.
    """
    F = _field(field)
    W = witt2(F)
    A = W.carrier
    p = F.p
    f = Morphism(W, W, {"T0": A.var("T0") ** p,
                        "T1": A.var("T1") ** p + A.var("T0")})
    K = kernel_subgroup(f)
    sub, _ = subgroup_from_elements(K, [("T", K.carrier.var("T1"))],
                                    name="kerFV")
    return sub


def E_trunc(n, field=None):
    """Height-n truncation of the extension of the additive line by its
    first kernel; it carries the same pinned presentation as D(n,A)."""
    return D(n, "A", field)


def cocycle_ext(a, n, field=None, exponents=None):
    """Extension of one additive kernel by another, twisted by a single
    monomial two-cocycle a x^e1 y^e2 on the base coordinate.

    Carrier k[T,T2]/(T^(p^n), T2^(p^n)); T spans the base, T2 the
    fibre, and delta(T2) picks up a T^e1 x T^e2.  Default exponents
    are (p, p^(n-1)).
    """
    F = _field(field)
    if n < 1:
        raise BadParams("cocycle_ext needs n >= 1")
    if not 0 <= a < F.q:
        raise BadParams("scalar a out of range")
    p = F.p
    if exponents is None:
        exponents = (p, p ** (n - 1))
    e1, e2 = exponents
    if e1 < 1 or e2 < 1:
        raise BadParams("cocycle exponents must be positive")
    A = Algebra(F, ("T", "T2"), (p ** n, p ** n))
    t2 = A.tensor(A)
    T, T_ = t2.embed(A.var("T"), 0), t2.embed(A.var("T"), 1)
    T2, T2_ = t2.embed(A.var("T2"), 0), t2.embed(A.var("T2"), 1)
    delta = {"T": T + T_,
             "T2": T2 + T2_ + (T ** e1 * T_ ** e2) * t2.scalar(a)}
    return HopfAlgebra(A, delta, {"T": 0, "T2": 0}, None,
                       name="cocycle_ext(a=%s,n=%d)" % (F.scalar_str(a), n))


def SL2_kerF(n, field=None):
    """Height-n frobenius kernel of the rank-one special linear group,
    written in the nilpotent coordinates u_ij = x_ij - delta_ij.

    Carrier: the free chart k[u11,u12,u21]/(u11^q, u12^q, u21^q) with
    q = p^n.  Since 1 + u11 is a unit, det = 1 solves for
    u22 = (u12 u21 - u11)(1 + u11)^-1, and Frobenius is additive, so
    u22^q = (u12^q u21^q - u11^q)(1 + u11^q)^-1 = 0 holds already: the
    chart is k[u11,u12,u21,u22]/(u^q, det - 1) with u22 eliminated, and
    needs no Groebner basis.  ``carrier.aliases["u22"]`` holds that
    series, so ``carrier.var("u22")`` reads it.  Matrix
    comultiplication, adjugate antipode u11 -> u22, u12 -> -u12,
    u21 -> -u21 (Jantzen, Representations of Algebraic Groups, I.9).
    """
    F = _field(field)
    if n < 1:
        raise BadParams("SL2_kerF needs n >= 1")
    A = Algebra(F, ("u11", "u12", "u21"), (F.p ** n,) * 3)
    u11, u12, u21 = A.gens()
    A.aliases["u22"] = ((u12 * u21 - u11) * invert_unit(A.one() + u11)).d
    t2 = A._square()
    names = ("u11", "u12", "u21", "u22")
    u = {nm: t2.embed(A.var(nm), 0) for nm in names}
    u_ = {nm: t2.embed(A.var(nm), 1) for nm in names}
    delta = {}
    for nm in A.vars:
        i, j = nm[1], nm[2]
        acc = u[nm] + u_[nm]
        for k in "12":
            acc = acc + u["u" + i + k] * u_["u" + k + j]
        delta[nm] = acc
    anti = {"u11": A.var("u22"), "u12": -u12, "u21": -u21}
    return HopfAlgebra(A, delta, {nm: 0 for nm in A.vars}, anti,
                       name="SL2_kerF(%d)" % n)


def PGL2_kerF(n, field=None):
    """Height-n frobenius kernel of the projective linear group on the
    chart x22 = 1.

    Carrier: k[a,b,c]/(a^q, b^q, c^q) with q = p^n, the coordinates of
    the Moebius matrix ((1 + a, b), (c, 1)) = x / x22.  delta is the
    matrix product divided by its (2,2) entry 1 + c b', and the antipode
    is the inverse matrix divided by 1 + a: a -> (1 + a)^-1 - 1,
    b -> -b (1 + a)^-1, c -> -c (1 + a)^-1.  Frobenius is multiplicative,
    so both maps kill the truncations.
    """
    F = _field(field)
    if n < 1:
        raise BadParams("PGL2_kerF needs n >= 1")
    A = Algebra(F, ("a", "b", "c"), (F.p ** n,) * 3)
    a, b, c = A.gens()
    t2 = A._square()
    one = t2.one()
    x = {nm: t2.embed(A.var(nm), 0) for nm in A.vars}
    x_ = {nm: t2.embed(A.var(nm), 1) for nm in A.vars}
    inv = invert_unit(one + x["c"] * x_["b"])
    delta = {"a": ((one + x["a"]) * (one + x_["a"]) + x["b"] * x_["c"]) * inv
             - one,
             "b": ((one + x["a"]) * x_["b"] + x["b"]) * inv,
             "c": (x["c"] * (one + x_["a"]) + x_["c"]) * inv}
    ainv = invert_unit(A.one() + a)
    anti = {"a": ainv - A.one(), "b": -b * ainv, "c": -c * ainv}
    return HopfAlgebra(A, delta, {nm: 0 for nm in A.vars}, anti,
                       name="PGL2_kerF(%d)" % n)


def H_unip(s1, s2, n, field=None):
    """Line of unipotent matrices inside SL2_kerF(n): the subgroup cut
    out by s1*u11 + s2*u12, s2*u22 + s1*u21 and u11 + u22."""
    F = _field(field)
    if s1 == 0 and s2 == 0:
        raise BadParams("the line (s1, s2) must be nonzero")
    G = SL2_kerF(n, F)
    A = G.carrier

    def lin(c1, nm1, c2, nm2):
        return A.var(nm1) * A.scalar(c1) + A.var(nm2) * A.scalar(c2)

    eqs = [lin(s1, "u11", s2, "u12"),
           lin(s2, "u22", s1, "u21"),
           lin(1, "u11", 1, "u22")]
    return closed_subgroup(G, eqs,
                           name="Hunip(s1=%s,s2=%s,n=%d)"
                           % (F.scalar_str(s1), F.scalar_str(s2), n))


def pullback(s1, s2, n, field=None):
    """Preimage of H_unip(s1,s2,n) under frobenius inside SL2_kerF(n+1),
    in the matrix coordinates X_ij themselves (p = 2 only).

    The carrier keeps all four X_ij so that scaling every X_ij at once
    is a grading by monomial degree mod 2; the defining relations are
    the determinant, the squared diagonal tie and the two squared line
    equations, all of which are degree-homogeneous.
    """
    F = _field(field)
    if F.p != 2:
        raise BadParams("pullback is built in residue characteristic 2")
    if s1 == 0 and s2 == 0:
        raise BadParams("the line (s1, s2) must be nonzero")
    if n < 1:
        raise BadParams("pullback needs n >= 1")
    order = 2 ** (n + 1)
    names = ("X11", "X12", "X21", "X22")
    shell = Algebra(F, names, (order,) * 4,
                    kinds=("unit", "nil", "nil", "unit"))
    X11, X12, X21, X22 = (shell.var(nm) for nm in names)
    one = shell.one()
    gens = [X11 * X22 + X12 * X21 + one,
            X11 ** 2 + X22 ** 2,
            (X11 ** 2 + one) * shell.scalar(s1) + X12 ** 2 * shell.scalar(s2),
            (X22 ** 2 + one) * shell.scalar(s2) + X21 ** 2 * shell.scalar(s1)]
    A = quotient_algebra(shell, gens, eliminate=False)
    t2 = A.tensor(A)
    x = {nm: t2.embed(A.var(nm), 0) for nm in names}
    x_ = {nm: t2.embed(A.var(nm), 1) for nm in names}
    delta = {}
    for i in (1, 2):
        for j in (1, 2):
            nm = "X%d%d" % (i, j)
            acc = t2.zero()
            for k in (1, 2):
                acc = acc + x["X%d%d" % (i, k)] * x_["X%d%d" % (k, j)]
            delta[nm] = acc
    counit = {"X11": 1, "X12": 0, "X21": 0, "X22": 1}
    anti = {"X11": A.var("X22"), "X22": A.var("X11"),
            "X12": A.var("X12"), "X21": A.var("X21")}
    return HopfAlgebra(A, delta, counit, anti,
                       name="pullback(%s,%s,%d)"
                       % (F.scalar_str(s1), F.scalar_str(s2), n))


def semidirect(Hu, Hm, weights, name=None):
    """Semidirect product of a unipotent part Hu by a multiplicative
    part Hm = mu(l), acting diagonally with integer weights.

    weights maps each generator x of Hu to the exponent w(x) with which
    the unit W = 1 + U rescales it.  On the product carrier the
    comultiplication twists the right leg: every second-leg monomial m
    of delta_Hu(x) picks up a W^w(m) in the first leg (one
    ``multiply_legs`` with the legs m1 -> m1 x 1, m2 -> W^w(m2) x m2),
    and delta(U) = U x 1 + 1 x U + U x U as in mu.  The antipode is
    S(x) = W^(-w(x)) S_Hu(x), which the axiom check re-verifies.
    """
    Au, Am = Hu.carrier, Hm.carrier
    F = Hu.field
    if type(Au) is not Algebra or type(Am) is not Algebra:
        raise BadParams("semidirect needs free carriers on both sides")
    if set(Au.vars) & set(Am.vars):
        raise BadParams("generator names of the two parts collide")
    for v in Au.vars:
        if v not in weights:
            raise BadParams("missing weight for %s" % v)
    mvar = Am.vars[0]
    names = Au.vars + Am.vars
    shell = Algebra(F, names, Au.orders + Am.orders)
    t2 = shell.tensor(shell)
    U = shell.var(mvar)
    W = shell.one() + U
    Winv = invert_unit(W)
    # the powers of W, one memo for delta and S
    wpowers = {1: W.d, -1: Winv.d}

    def push(f):
        return apply_map(f, {}, shell)

    # the monomials of A(Hu) as monomials of the shell
    lift = _mono_images(Au, {}, shell)

    def twisted(m2):
        wt = sum(e * weights[x] for x, e in zip(Au.vars, Au.exponents(m2)))
        return t2.elem(Poly(shell, _power(wpowers, wt, shell)),
                       Poly(shell, lift(m2))).d

    legs = (lambda m1: t2.embed(Poly(shell, lift(m1)), 0).d, twisted)
    delta = {v: multiply_legs(Hu.delta[v], legs, t2) for v in Au.vars}
    Uu, Uu_ = t2.embed(U, 0), t2.embed(U, 1)
    delta[mvar] = Uu + Uu_ + Uu * Uu_

    counit = {v: Hu.counit[v] for v in Au.vars}
    counit[mvar] = 0
    anti = {v: Poly(shell, _power(wpowers, -weights[v], shell))
            * push(Hu.antipode[v]) for v in Au.vars}
    anti[mvar] = Winv - shell.one()

    out = HopfAlgebra(shell, delta, counit, anti,
                      name=name or ("semidirect(%s,%s)" % (Hu.name, Hm.name)))
    _require_ok(hopf_verify(out), "semidirect structure")
    return out


# ---------------------------------------------------------------------------
# catalogue id parsing


def _balanced(text):
    """Whether every bracket of text closes, and none closes early."""
    depth = 0
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def _split_args(body):
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


def _scalar_token(tok, F):
    tok = tok.strip()
    if tok == "g":
        return F.gen
    if tok.startswith("g^"):
        return F.pow(F.gen, int(tok[2:]))
    code = int(tok)
    if not 0 <= code < F.q:
        raise BadParams("scalar %r out of range for %s" % (tok, F.name))
    return code


def _kwargs(parts, F, names):
    out = {}
    for part in parts:
        if "=" not in part:
            raise BadParams("expected name=value, got %r" % part)
        key, val = part.split("=", 1)
        key = key.strip()
        # heights are plain integers; everything else is a field scalar
        out[key] = int(val) if key in ("n", "l") else _scalar_token(val, F)
    if sorted(out) != sorted(names) or len(parts) != len(names):
        raise ValueError("takes the arguments %s" % ", ".join(names))
    return [out[nm] for nm in names]


def _arity(parts, lo, hi=None):
    if not lo <= len(parts) <= (lo if hi is None else hi):
        raise ValueError("wrong number of arguments: %d" % len(parts))


def zoo_parse(text, field=None):
    """Build a catalogue group from its id string.

    Examples: alpha(4), mu(2), D(2,A), H(a=g^3,n=2), witt2, kerFV,
    E_trunc(2), cocycle_ext(a=1,n=3), SL2_kerF(2), PGL2_kerF(2),
    Hunip(s1=1,s2=0,n=2), pullback(1,0,1),
    semidirect(D(2),mu(1),w=[-1,1]).

    An id that does not parse (unbalanced parentheses) or names no
    catalogue group raises ParseError; arguments that do not fit the
    constructor (their number, names or values) raise BadParams.
    """
    F = _field(field)
    text = text.strip()
    if "(" not in text:
        head, parts = text, []
    else:
        head, body = text.split("(", 1)
        if not (text.endswith(")") and _balanced(body[:-1])):
            raise ParseError("unbalanced parentheses in %r" % text)
        head = head.strip()
        parts = _split_args(body[:-1])
    try:
        build, args = _catalogue_call(head, parts, F)
    except (IndexError, KeyError, ValueError) as exc:
        raise BadParams("malformed catalogue id %r: %r" % (text, exc)) from None
    return build(*args)


def _catalogue_call(head, parts, F):
    """Constructor and its arguments for a catalogue id split into parts."""
    if head in _BY_HEIGHT:
        _arity(parts, 1)
        return _BY_HEIGHT[head], (int(parts[0]), F)
    if head == "D":
        _arity(parts, 1, 2)
        pres = parts[1] if len(parts) > 1 else "A"
        return D, (int(parts[0]), pres, F)
    if head == "H":
        if parts and "=" not in parts[0]:
            _arity(parts, 2)
            return H, (_scalar_token(parts[0], F), int(parts[1]), F)
        return H, (*_kwargs(parts, F, ("a", "n")), F)
    if head == "witt2":
        _arity(parts, 0)
        return witt2, (F,)
    if head == "kerFV":
        _arity(parts, 0)
        return kerFV, (F,)
    if head == "cocycle_ext":
        return cocycle_ext, (*_kwargs(parts, F, ("a", "n")), F)
    if head in ("Hunip", "H_unip"):
        return H_unip, (*_kwargs(parts, F, ("s1", "s2", "n")), F)
    if head == "pullback":
        s1, s2, n = (int(x) for x in parts)
        return pullback, (s1, s2, n, F)
    if head == "semidirect":
        if len(parts) != 3 or not parts[2].startswith("w="):
            raise BadParams("semidirect takes (unipotent, mu, w=[...])")
        Hu = zoo_parse(parts[0], F)
        Hm = zoo_parse(parts[1], F)
        wlist = [int(x) for x in _split_args(parts[2][3:].strip("[]"))]
        uvars = Hu.carrier.vars
        if len(wlist) != len(uvars):
            raise BadParams("need one weight per generator of %s" % Hu.name)
        return semidirect, (Hu, Hm, dict(zip(uvars, wlist)))
    raise ParseError("unknown catalogue id %r" % head)


construct = zoo_parse

_BY_HEIGHT = {"alpha": alpha, "mu": mu, "E_trunc": E_trunc,
              "SL2_kerF": SL2_kerF, "PGL2_kerF": PGL2_kerF}


# ---------------------------------------------------------------------------
# presentation change and rescaling maps


def d_presentation_iso(n, field=None):
    """Hopf isomorphism from D(n,B) to D(n,A).

    At p = 2 the pinned images are S -> S, T -> T + S T^p, and the map
    composed with itself is the identity.  For odd p the sign-corrected
    images S -> -S, T -> -T + S T^p do the job.
    """
    F = _field(field)
    src, tgt = D(n, "B", F), D(n, "A", F)
    A = tgt.carrier
    if n == 0:
        images = {"S": A.var("S") if F.p == 2 else -A.var("S")}
    elif F.p == 2:
        images = {"S": A.var("S"),
                  "T": A.var("T") + A.var("S") * A.var("T") ** 2}
    else:
        images = {"S": -A.var("S"),
                  "T": -A.var("T") + A.var("S") * A.var("T") ** F.p}
    f = Morphism(src, tgt, images)
    rep = morphism_check(f)
    if not (rep["ok"] and f.is_bijective()):
        raise VerifyError("d_presentation_iso", rep["failures"][:1])
    return f


def h_iso_map(a, b, n, a1, field=None):
    """Try to carry H(a,n) onto H(b,n) by the rescaling T -> a1 T.

    The rescaling respects the comultiplication tails exactly when
    a * a1^(p^(n-1) + p) = a1 * b; the report records both sides, and
    the morphism plus its full check when the identity holds.
    """
    F = _field(field)
    src, tgt = H(a, n, F), H(b, n, F)
    e = F.p ** (n - 1) + F.p
    lhs = F.mul(a, F.pow(a1, e)) if a1 else 0
    rhs = F.mul(a1, b)
    report = {"exponent": e, "lhs": lhs, "rhs": rhs,
              "satisfied": lhs == rhs, "identity": "a*a1^%d = a1*b" % e}
    f = Morphism(src, tgt, {"T": tgt.carrier.var("T") * tgt.carrier.scalar(a1)})
    rep = morphism_check(f)
    report["morphism"] = f
    report["check_ok"] = rep["ok"]
    report["bijective"] = f.is_bijective()
    return report


# ---------------------------------------------------------------------------
# coactions of the multiplicative kernels


def _coaction_frame(G, M):
    """What the coaction axioms need of (G, M) alone, built once: returns
    t2 = A(G) x A(M) and a function sending images over t2 to a lazy
    sequence of the axioms' failures, in ``group_coaction_verify``'s
    order, so a search can stop at the first one."""
    AG, AM = G.carrier, M.carrier
    t2, t3, t3g = AG.tensor(AM), AG.tensor(AM, AM), AG.tensor(AG, AM)
    # rho(x) goes on legs (0, 2) or (1, 2) of t3g: its A(G) leg becomes
    # one leg of A(G) x A(G)
    tgg = AG._square()
    to_legs = tuple((lambda m, k=k: tgg.embed(Poly(AG, {m: 1}), k).d)
                    for k in (0, 1))
    relations = _relation_polys(AG)

    def found(axiom, nm, diff):
        if diff.d:
            yield Failure(axiom, nm, diff)

    def failures(images):
        # well definedness on the shell powers and relations of A(G)
        for nm, d, kind in zip(AG.vars, AG.orders, AG.kinds):
            val = images[nm] ** d
            yield from found("well_defined", nm,
                             val if kind == "nil" else val - t2.one())
        rho_mono = _mono_images(AG, images, t2)
        for g in relations:
            yield from found("well_defined", "relation",
                             _sum_images(g, rho_mono, t2))
        for nm in AG.vars:
            yield from found("counit_M", nm, map_leg(
                images[nm], 1, M._eps_leg, AG) - AG.var(nm))
        for nm in AG.vars:
            yield from found("counit_G", nm, map_leg(
                images[nm], 0, G._eps_leg, AM) - AM.scalar(G.counit[nm]))
        # rho on the A(G) leg of rho(x) against delta_M on its A(M) leg
        for nm in AG.vars:
            yield from found("coassoc", nm,
                             map_leg(images[nm], 0, rho_mono, t3)
                             - map_leg(images[nm], 1, M.delta_mono, t3))
        # (rho ox rho) delta_G(x), the A(M) outputs multiplied, against
        # delta_G on the A(G) leg of rho(x)
        rho_legs = tuple(_mono_images(AG, {x: map_leg(v, 0, to, t3g)
                                           for x, v in images.items()}, t3g)
                         for to in to_legs)
        for nm in AG.vars:
            yield from found("delta_G", nm,
                             multiply_legs(G.delta[nm], rho_legs, t3g)
                             - map_leg(images[nm], 0, G.delta_mono, t3g))

    return t2, failures


def group_coaction_verify(G, M, images):
    """Axioms for a right coaction of the group with carrier A(M) on the
    group with carrier A(G), given on generators by images in A(G) x A(M).

    Checks: the images respect the defining relations of A(G); the
    M-counit collapses the coaction to the identity; the G-counit
    collapses it to the unit; coassociativity against delta_M; and
    compatibility with delta_G (the coaction is a group homomorphism
    M -> Aut(G), expressed on coordinates).  ``failures`` lists every
    one that fails, in that order; images must be given on exactly the
    generators of A(G) (BadParams otherwise).

    The relations and the rho side of coassociativity sum through one
    memo of rho on monomials; the counit axioms read eps_M, and eps_G,
    off one leg of rho(x) with ``map_leg``, and delta_M and delta_G
    substitute into one leg the same way.  (rho ox rho) delta_G is
    ``multiply_legs`` over two memos of rho, one landing on legs (0, 2)
    of A(G) x A(G) x A(M) and one on legs (1, 2).
    """
    _require_on_gens("images", images, G.carrier.vars)
    t2, failures = _coaction_frame(G, M)
    found = list(failures({nm: apply_map(v, {}, t2)
                           for nm, v in images.items()}))
    return _report(found)


def mu_action_normalize(i, coeffs, n, field=None):
    """Straighten a coaction of mu(1) on alpha(n) of the shape
    v . x = v^i x + (v^i - 1) sum_l a_l x^(p^l).

    First verifies that the data really is a coaction (NotAnAction if
    not), then checks that phi(x) = x + sum_l a_l x^(p^l) intertwines
    it with the plain diagonal coaction x -> x x (1+U)^i.
    """
    F = _field(field)
    G, M = alpha(n, F), mu(1, F)
    AG, AM = G.carrier, M.carrier
    t2 = AG.tensor(AM)
    x = t2.embed(AG.var("T"), 0)
    v = t2.one() + t2.embed(AM.var("U"), 1)
    vi = v ** i
    if not isinstance(coeffs, dict):
        coeffs = {l: a for l, a in enumerate(coeffs, start=1)}
    psi = t2.zero()
    phi = AG.var("T")
    for l, a in sorted(coeffs.items()):
        if a == 0:
            continue
        term = x ** (F.p ** l) * t2.scalar(a)
        psi = psi + term
        phi = phi + AG.var("T") ** (F.p ** l) * AG.scalar(a)
    rho = x * vi + psi * (vi - t2.one())
    rep = group_coaction_verify(G, M, {"T": rho})
    if not rep["ok"]:
        raise NotAnAction("coaction axioms fail: %r"
                          % rep["failures"][0].axiom)
    lhs = apply_map(phi, {"T": rho}, t2)
    rhs = t2.embed(phi, 0) * vi
    return {"normalizer": phi, "intertwines": lhs == rhs,
            "coaction": rho, "residual": lhs - rhs}


def enumerate_coactions(G, M):
    """All coactions of M on a one-generator G, by exhausting the image
    space of the generator.

    A counit-compatible candidate is x + (terms in aug(G) x aug(M)), so
    the search space is the product of the two augmentation ideals, run
    through by ``hopf._combos`` over the products of their basis
    monomials, the first coefficient fastest.  More than SEARCH_LIMIT
    candidates are refused (SizeGuard) before any is made.  The axioms'
    frame is built once, and a candidate is dropped at the first failure
    ``group_coaction_verify`` would list, so it keeps exactly the
    candidates that verify.
    """
    AG, AM = G.carrier, M.carrier
    F = G.field
    if len(AG.vars) != 1:
        raise BadParams("enumeration needs a one-generator carrier")
    nm = AG.vars[0]
    t2, failures = _coaction_frame(G, M)
    base = t2.embed(AG.var(nm), 0)
    cells = [t2.elem(AG.poly({mg: 1}), AM.poly({mm: 1}))
             for mg in AG.basis_monomials() if AG.degree(mg)
             for mm in AM.basis_monomials() if AM.degree(mm)]
    total = F.q ** len(cells)
    if total > SEARCH_LIMIT:
        raise SizeGuard("coaction search space", total, SEARCH_LIMIT)
    found = []
    for el in _combos(t2, cells):
        rho = base + el
        if next(failures({nm: rho}), None) is None:
            found.append(rho)
    return found


# ---------------------------------------------------------------------------
# exhaustive morphism searches against the matrix kernels


def sl2_hom_enumerate(n, field=None):
    """Every group morphism from alpha(p^n) into SL2_kerF(n), with the
    shape of each nontrivial one extracted.

    Each morphism turns out to be unipotent: the four matrix entries
    are a common additive polynomial f(T) times a fixed nilpotent
    rank-one matrix B with zero trace.  At p = 2 the matrix normalizes
    to B = ((s1 s2, s1^2), (s2^2, s1 s2)) for a line (s1, s2).
    """
    F = _field(field)
    G, A = SL2_kerF(n, F), alpha(n, F)
    homs = enumerate_morphisms(G, A)
    out = []
    for f in homs:
        entry = {"morphism": f, "trivial": all(not v.d
                                               for v in f.images.values())}
        if not entry["trivial"]:
            entry.update(_hom_shape(f, F))
        out.append(entry)
    return out


def _hom_shape(f, F):
    """Common additive factor and coefficient matrix of a nonzero hom."""
    AT = f.target.carrier
    # the u22 entry is the image of its alias on the chart
    entries = dict(f.images)
    entries["u22"] = f.map(f.source.carrier.var("u22"))
    monos = set()
    for v in entries.values():
        monos |= set(v.d)
    monos = sorted(monos, key=AT.exponents)
    # the content: gcd of the images as a distributed additive polynomial
    coeffs = {}
    for nm, v in entries.items():
        coeffs[nm] = {m: v.d.get(m, 0) for m in monos}
    # find a monomial where some entry is nonzero, scale it to 1 there
    pivot = None
    for nm in ("u12", "u21", "u11"):
        if any(coeffs[nm].values()):
            pivot = nm
            break
    lead = next(m for m in monos if coeffs[pivot][m])
    c0 = coeffs[pivot][lead]
    fpoly = AT.zero()
    ok = True
    for m in monos:
        ratio = F.div(coeffs[pivot][m], c0)
        fpoly = fpoly + AT.poly({m: ratio})
        for nm in coeffs:
            if coeffs[nm][m] != F.mul(ratio, coeffs[nm][lead]):
                ok = False
    B = {nm: coeffs[nm][lead] for nm in coeffs}
    powers = {F.p ** k for k in range(9)}
    additive = all(AT.degree(m) in powers for m in monos)
    tr = F.add(B["u11"], B["u22"])
    det = F.sub(F.mul(B["u11"], B["u22"]), F.mul(B["u12"], B["u21"]))
    shape = {"factored": ok, "f": fpoly, "B": B, "f_additive": additive,
             "B_trace": tr, "B_det": det}
    if F.p == 2:
        shape["line"] = (F.frob(B["u12"], -1), F.frob(B["u21"], -1))
    return shape


def unipotent_line_hom(s1, s2, n, field=None):
    """The morphism alpha(n) -> SL2_kerF(n) whose matrix of images is
    T times ((s1 s2, -s1^2), (s2^2, -s1 s2))."""
    F = _field(field)
    if s1 == 0 and s2 == 0:
        raise BadParams("the line (s1, s2) must be nonzero")
    G, A = SL2_kerF(n, F), alpha(n, F)
    T = A.carrier.var("T")

    def sc(c):
        return T * A.carrier.scalar(c)

    # u22 goes to -s1 s2 T through its alias
    images = {"u11": sc(F.mul(s1, s2)), "u12": sc(F.neg(F.mul(s1, s1))),
              "u21": sc(F.mul(s2, s2))}
    return Morphism(G, A, images)


# ---------------------------------------------------------------------------
# fixed ring of the diagonal rescaling on the pullback


def mu2_invariants_D(s1, s2, n, field=None):
    """Weight-zero part of pullback(s1,s2,n) under the rescaling that
    multiplies every X_ij by the same square root of unity, re-presented
    on the two generators Y1 = X11 X12 and Y2 = X21 X22, together with
    an isomorphism from D(n+1,B) onto it.

    The report records the exact comultiplication of the two
    generators, the primitivity of s1 Y2 + s2 Y1, and the status of the
    shortcut identities that hold on the nose only when n = 1 or the
    line is degenerate.
    """
    F = _field(field)
    if s1 == 0 and s2 == 0:
        raise BadParams("the line (s1, s2) must be nonzero")
    P = pullback(s1, s2, n, F)
    A = P.carrier
    t2 = P.t2()
    # normalized line: the cut ideal only sees the ratio
    if s1 != 0:
        s1n, s2n = 1, F.div(s2, s1)
    else:
        s1n, s2n = 0, 1

    wd = weight_decomposition(A, {nm: 1 for nm in A.vars}, 2)
    dims = {w: len(v) for w, v in wd.items()}

    X11, X12 = A.var("X11"), A.var("X12")
    X21, X22 = A.var("X21"), A.var("X22")
    Y1, Y2 = X11 * X12, X21 * X22

    def emb(f, leg):
        return t2.embed(f, leg)

    report = {"group": None, "iso": None, "weights": dims,
              "identities": {}, "shortcuts": {}}

    # exact comultiplications of the two products
    d1 = P.delta_map(Y1)
    d2 = P.delta_map(Y2)
    want1 = emb(X11 ** 2, 0) * emb(Y1, 1) + emb(Y1, 0) \
        + emb(X12 ** 2, 0) * emb(Y2, 1)
    want2 = emb(X21 ** 2, 0) * emb(Y1, 1) + emb(Y2, 0) \
        + emb(X22 ** 2, 0) * emb(Y2, 1)
    if d1 != want1:
        raise IdentityFailed("delta(Y1)", d1 - want1)
    if d2 != want2:
        raise IdentityFailed("delta(Y2)", d2 - want2)
    report["identities"]["delta_Y1"] = True
    report["identities"]["delta_Y2"] = True

    mixed = X11 * X22 + X12 * X21
    if mixed != A.one():
        raise IdentityFailed("X11 X22 + X12 X21 = 1", mixed - A.one())
    report["identities"]["det_products"] = True

    Sbar = Y2 * A.scalar(s1) + Y1 * A.scalar(s2)
    dS = P.delta_map(Sbar)
    prim = emb(Sbar, 0) + emb(Sbar, 1)
    if not Sbar.d:
        raise IdentityFailed("s1 Y2 + s2 Y1 nonzero", Sbar)
    if dS != prim:
        raise IdentityFailed("s1 Y2 + s2 Y1 primitive", dS - prim)
    if (Sbar * Sbar).d:
        raise IdentityFailed("(s1 Y2 + s2 Y1)^2 = 0", Sbar * Sbar)
    report["identities"]["sbar_primitive"] = True

    # shortcut identities: literal only when n = 1 or the normalized
    # line is degenerate, since they replace X12^2 by Y1^2
    naive = emb(Y1, 0) + emb(Y1, 1) + emb(Y1 ** 2, 0) * emb(Sbar, 1)
    report["shortcuts"]["delta_Y1_squares"] = d1 == naive
    if s1n:
        report["shortcuts"]["sq_12"] = (X12 ** 2 == Y1 ** 2)
        report["shortcuts"]["sq_21"] = \
            (X21 ** 2 == Y1 ** 2 * A.scalar(F.mul(s2n, s2n)))
        report["shortcuts"]["diag_units"] = \
            (X11 ** 2 == A.one() + Y1 ** 2 * A.scalar(s2n))
    else:
        report["shortcuts"]["sq_12"] = not (Y1 ** 2).d
        report["shortcuts"]["sq_21"] = (X21 ** 2 == Y2 ** 2)
        report["shortcuts"]["diag_units"] = (X22 ** 2 == A.one())

    K, _incl = subgroup_from_elements(P, [("Y1", Y1), ("Y2", Y2)],
                                      name="invariants(%s)" % P.name)
    if K.carrier.dim != 2 ** (n + 2):
        raise IdentityFailed("fixed ring dimension 2^(n+2)",
                             K.carrier.dim - 2 ** (n + 2))
    if dims.get(0) != 2 ** (n + 2):
        raise IdentityFailed("weight-zero dimension 2^(n+2)",
                             dims.get(0, 0) - 2 ** (n + 2))
    report["group"] = K

    y1 = K.carrier.var("Y1")
    y2 = K.carrier.var("Y2")
    if not (y1 ** (2 ** n)).d and s1n:
        raise IdentityFailed("Y1^(2^n) nonzero", y1 ** (2 ** n))
    Dmodel = D(n + 1, "B", F)
    if s1n:
        # T goes to h(Y1) with h(Z) = sum_i sqrt(s2^(2^i - 1)) Z^(2^i),
        # the square-root-free rewrite of the coefficient X12^2
        simg = y2 + y1 * K.carrier.scalar(s2n)
        timg = y1
        for i in range(1, n + 1):
            c = F.frob(F.pow(s2n, 2 ** i - 1), -1) if s2n else 0
            if c:
                timg = timg + y1 ** (2 ** i) * K.carrier.scalar(c)
    else:
        simg = y1
        timg = y2
    iso = Morphism(Dmodel, K, {"S": simg, "T": timg})
    rep = morphism_check(iso)
    if not (rep["ok"] and iso.is_bijective()):
        raise IdentityFailed("two-generator model isomorphism",
                             rep["failures"][:1])
    report["iso"] = iso
    report["model"] = Dmodel
    return report


# ---------------------------------------------------------------------------
# cocycle checks


def cocycle_check(a, n, field=None):
    """Three facts about the monomial cocycle a x^p y^(p^(n-1)) and its
    extension group.

    (1) the symmetric two-cocycle identity holds as polynomials;
    (2) at a = 0 the extension is literally the product of two additive
        kernels;
    (3) with the default exponents the one-generator family H(a,n)
        admits no closed embedding once a != 0 and n >= 2; the count of
        embeddings found by exhausting primitive base images is
        reported, followed by the exponent pair (p^(n-2), 1) for which
        the embedding T -> t^p, T2 -> t exists and is verified.
    """
    F = _field(field)
    p = F.p
    report = {}

    # (1) cocycle identity in three plain truncated variables
    Axyz = Algebra(F, ("x", "y", "z"), (p ** n,) * 3)
    x, y, z = Axyz.var("x"), Axyz.var("y"), Axyz.var("z")

    def c(u, v):
        return (u ** p * v ** (p ** (n - 1))) * Axyz.scalar(a)

    resid = c(y, z) - c(x + y, z) + c(x, y + z) - c(x, y)
    report["cocycle_identity"] = not resid.d

    # (2) zero cocycle gives the split product
    if a == 0:
        split = hopf_product(alpha(n, F), alpha(n, F))
        report["splits"] = presentations_equal(cocycle_ext(0, n, F), split)
        return report

    # (3) embeddings at the pinned exponents, by brute force over
    # primitive base images and arbitrary fibre images
    E = cocycle_ext(a, n, F)
    target = H(a, n, F)
    prims = primitive_elements(target)
    AH = target.carrier
    shape = {"T": prims, "T2": [AH.from_vector(v)
                                for v in target.aug_subspace().basis()]}
    embeddings = []
    for f in enumerate_morphisms(E, target, shape=shape):
        if kernel_subgroup(f).carrier.dim == 1:
            embeddings.append(f)
    report["pinned_exponents"] = (p, p ** (n - 1))
    report["pinned_embeddings"] = len(embeddings)

    if n >= 2:
        e_fix = (p ** (n - 2), 1)
        Efix = cocycle_ext(a, n, F, exponents=e_fix)
        t = AH.var("T")
        g = Morphism(Efix, target, {"T": t ** p, "T2": t})
        rep = morphism_check(g)
        ker = kernel_subgroup(g)
        report["corrected_exponents"] = e_fix
        report["corrected_ok"] = rep["ok"]
        report["corrected_kernel_trivial"] = ker.carrier.dim == 1
    return report
