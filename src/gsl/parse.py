"""Presentation files for group carriers, and the expression grammar.

A presentation file is line oriented:

    field GF(2)

    generators
      S ^2
      T ^4

    delta
      S = S + S'
      T = T + T' + T^2*S'

    epsilon
      S = 0
      T = 0

    antipode
      S = S
      T = T

followed by an optional action block with a single `rho = ...` line.
An optional aliases block names elements of the carrier, one
`NAME = expression` line each, as `u22` is named on the SL2 chart.
Primed names are the second tensor leg, `^` takes (possibly negative)
integer exponents, and `#` starts a comment.  The antipode block may be
omitted, in which case it is solved on the generators by fixed-point
iteration.  Parsing verifies the result; a broken file raises ParseError
with line and column, or VerifyError with the first Failure.
"""

from .action import Coaction, coaction_verify
from .errors import BadParams, GslError, NonUnit, NotInvertible, ParseError
from .gf import field_from_name
from .hopf import HopfAlgebra, _require_ok, hopf_verify
from .talg import Algebra, Poly


# -- expression grammar ------------------------------------------------------

def _tokenize(s, line, offset=0):
    """The tokens of s, each (kind, value, line, column); s starts at
    ``offset`` characters into its line."""
    toks = []
    i, n = 0, len(s)
    while i < n:
        ch = s[i]
        if ch in " \t":
            i += 1
            continue
        col = offset + i + 1
        if ch.isdigit():
            j = i
            while j < n and s[j].isdigit():
                j += 1
            val = int(s[i:j])
            # a tick on a literal is the same scalar on the other leg
            while j < n and s[j] == "'":
                j += 1
            toks.append(("int", val, line, col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (s[j].isalnum() or s[j] == "_"):
                j += 1
            while j < n and s[j] == "'":
                j += 1
            toks.append(("name", s[i:j], line, col))
            i = j
        elif ch in "+-*^()":
            toks.append(("op", ch, line, col))
            i += 1
        else:
            raise ParseError("unexpected character %r" % ch, line, col)
    toks.append(("end", None, line, offset + n + 1))
    return toks


class _Expr(object):
    """Recursive-descent evaluator: sums of products of powers of atoms.

    env maps names to ring elements (anything with + - * **), embed
    turns an integer literal into one.
    """

    def __init__(self, toks, env, embed):
        self.toks = toks
        self.env = env
        self.embed = embed
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def take(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def run(self):
        out = self.expr()
        kind, val, line, col = self.peek()
        if kind != "end":
            raise ParseError("unexpected %r" % str(val), line, col)
        return out

    def expr(self):
        kind, val, _, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            out = self.embed(0) - self.term()
        else:
            out = self.term()
        while True:
            kind, val, _, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                out = out + rhs if val == "+" else out - rhs
            else:
                return out

    def term(self):
        out = self.factor()
        while True:
            kind, val, _, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                out = out * self.factor()
            else:
                return out

    def factor(self):
        base = self.atom()
        kind, val, _, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            return base ** self._signed_int()
        return base

    def _signed_int(self):
        kind, val, line, col = self.take()
        neg = False
        if kind == "op" and val == "-":
            neg = True
            kind, val, line, col = self.take()
        if kind != "int":
            raise ParseError("expected an integer exponent", line, col)
        return -val if neg else val

    def atom(self):
        kind, val, line, col = self.take()
        if kind == "int":
            return self.embed(val)
        if kind == "name":
            try:
                return self.env[val]
            except KeyError:
                raise ParseError("unknown name %r" % val, line, col)
        if kind == "op" and val == "(":
            out = self.expr()
            kind, val, line, col = self.take()
            if not (kind == "op" and val == ")"):
                raise ParseError("expected ')'", line, col)
            return out
        raise ParseError("unexpected %r" % str(val), line, col)


def evaluate_expr(text, env, embed, line=1, offset=0):
    """Evaluate text, which starts ``offset`` characters into line
    ``line`` (for a ParseError's column)."""
    return _Expr(_tokenize(text, line, offset), env, embed).run()


def parse_coaction_expr(H, text, line=1, verify=True, offset=0):
    """A rho expression over the group H, evaluated in its line ring
    A ox k[X, X^-1]: Laurent in X with generator coefficients; W and V
    are shorthand for 1 + U when U is present.  ``line`` and ``offset``
    place text in its file, as for ``evaluate_expr``."""
    A = H.carrier
    L = H._line()
    env = {nm: L.var(nm) for nm in A.vars}
    env["X"] = L.var("X'")
    if "U" in A.vars:
        env.setdefault("W", 1 + L.var("U"))
        env.setdefault("V", env["W"])
    if H.field.m > 1:
        env.setdefault("g", L.scalar(H.field.gen))
    try:
        val = evaluate_expr(text, env, L.scalar_int, line, offset)
    except NonUnit as e:
        raise NotInvertible("negative power of a non-unit: %s" % e)
    c = Coaction(H, val)
    if verify:
        _require_ok(coaction_verify(c), "coaction")
    return c


# -- presentation files --------------------------------------------------------

_BLOCKS = ("generators", "delta", "epsilon", "antipode", "aliases",
           "action")


def parse_presentation(text):
    """Parse and verify a presentation file.

    Returns the HopfAlgebra, or a Coaction when an action block is
    present.  Structural problems raise ParseError with the line and
    column; a file that parses but breaks an axiom raises VerifyError.
    """
    field = None
    gens = []
    seen = set()
    maps = {"delta": {}, "epsilon": {}, "antipode": {}, "aliases": {}}
    rho_src = None
    block = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].rstrip()
        stripped = body.strip()
        if not stripped:
            continue
        col = body.index(stripped[0]) + 1
        parts = stripped.split()
        if parts[0] == "field":
            if len(parts) != 2:
                raise ParseError("field line wants exactly one name",
                                 lineno, col)
            try:
                field = field_from_name(parts[1])
            except ParseError as e:
                raise ParseError(str(e), lineno, col)
            continue
        if stripped in _BLOCKS:
            block = stripped
            continue
        if field is None:
            raise ParseError("expected a field line first", lineno, col)
        if block is None:
            raise ParseError("expected a block header", lineno, col)
        if block == "generators":
            if (len(parts) not in (2, 3) or not parts[1].startswith("^")
                    or parts[2:] not in ([], ["invertible"])):
                raise ParseError("want: NAME ^ORDER [invertible]",
                                 lineno, col)
            nm = parts[0]
            if not nm.isidentifier():
                raise ParseError("bad generator name %r" % nm, lineno, col)
            if nm in seen:
                raise ParseError("duplicate generator %r" % nm, lineno, col)
            try:
                order = int(parts[1][1:])
            except ValueError:
                raise ParseError("bad truncation order %r" % parts[1],
                                 lineno, col)
            seen.add(nm)
            gens.append((nm, order, len(parts) == 3, lineno, col))
        elif block == "action":
            if "=" not in stripped or stripped.split("=", 1)[0].strip() != "rho":
                raise ParseError("action block wants a single rho = ... line",
                                 lineno, col)
            if rho_src is not None:
                raise ParseError("duplicate rho line", lineno, col)
            rho_src = (stripped.split("=", 1)[1], lineno,
                       body.index("=") + 1)
        else:
            if "=" not in stripped:
                raise ParseError("want: NAME = expression", lineno, col)
            nm, rhs = stripped.split("=", 1)
            nm = nm.strip()
            if block == "aliases":
                if not nm.isidentifier():
                    raise ParseError("bad alias name %r" % nm, lineno, col)
            elif nm not in seen:
                raise ParseError("map for undeclared generator %r" % nm,
                                 lineno, col)
            if nm in maps[block]:
                raise ParseError("duplicate %s entry for %r" % (block, nm),
                                 lineno, col)
            # the right-hand side starts just after the "="
            maps[block][nm] = (rhs, lineno, col, body.index("=") + 1)
    if field is None:
        raise ParseError("missing field line", 1, 1)
    if not gens:
        raise ParseError("no generators declared", 1, 1)
    names = tuple(g[0] for g in gens)
    for want in ("delta", "epsilon"):
        for nm, _, _, lineno, col in gens:
            if nm not in maps[want]:
                raise ParseError("no %s entry for generator %r" % (want, nm),
                                 lineno, col)
    for nm, (_, lineno, col, _) in maps["aliases"].items():
        if nm in seen:
            raise ParseError("alias %r names a generator" % nm, lineno, col)
    if maps["antipode"]:
        for nm, _, _, lineno, col in gens:
            if nm not in maps["antipode"]:
                raise ParseError("antipode block must cover %r too" % nm,
                                 lineno, col)

    try:
        A = Algebra(field, names, tuple(g[1] for g in gens),
                    tuple("unit" if g[2] else "nil" for g in gens))
    except BadParams as e:
        raise ParseError(str(e), gens[0][3], gens[0][4])
    t2 = A.tensor(A)
    env2 = {nm: t2.var(nm) for nm in t2.vars}
    env1 = {nm: A.var(nm) for nm in A.vars}
    env0 = {}
    if field.m > 1:
        for env, alg in ((env2, t2), (env1, A), (env0, A)):
            env.setdefault("g", alg.scalar(field.gen))

    def value(block, nm, env, embed):
        src, lineno, _, offset = maps[block][nm]
        return evaluate_expr(src, env, embed, lineno, offset)

    delta = {nm: value("delta", nm, env2, t2.scalar_int) for nm in names}
    counit = {nm: value("epsilon", nm, env0, A.scalar_int).constant_term()
              for nm in names}
    antipode = None
    if maps["antipode"]:
        antipode = {nm: value("antipode", nm, env1, A.scalar_int)
                    for nm in names}
    for nm in maps["aliases"]:
        A.aliases[nm] = value("aliases", nm, env1, A.scalar_int).d

    try:
        H = HopfAlgebra(A, delta, counit, antipode)
    except GslError:
        # the antipode solver gave up; pin a placeholder so that the
        # verifier can name the axiom the file actually breaks
        H = HopfAlgebra(A, delta, counit, dict(env1))
    _require_ok(hopf_verify(H), "presentation")
    if rho_src is None:
        return H
    return parse_coaction_expr(H, rho_src[0], rho_src[1],
                               offset=rho_src[2])


# -- canonical printing ----------------------------------------------------------

def _coeff_term(cs, i):
    if i == 0:
        return cs
    base = "X" if i == 1 else "X^%d" % i
    if cs == "1":
        return base
    if "+" in cs:
        return "(%s)*%s" % (cs, base)
    return "%s*%s" % (cs, base)


def rho_str(c):
    A = c.group.carrier
    if not c.rho:
        return "0"
    return " + ".join(_coeff_term(A.poly_str(c.rho[i]), i)
                      for i in sorted(c.rho, reverse=True))


def print_presentation(obj):
    """Canonical text form; parse_presentation of the output reproduces
    the object, and printing is a fixed point on parsed canonical text."""
    if isinstance(obj, Coaction):
        return (print_presentation(obj.group)
                + "\naction\n  rho = %s\n" % rho_str(obj))
    H = obj
    A = H.carrier
    if A.ambient is not A:
        raise BadParams("only freely presented carriers can be printed")
    t2 = H.t2()
    lines = ["field %s" % H.field.name, "", "generators"]
    for nm, d, k in zip(A.vars, A.orders, A.kinds):
        lines.append("  %s ^%d%s" % (nm, d,
                                     " invertible" if k == "unit" else ""))
    lines += ["", "delta"]
    for nm in A.vars:
        lines.append("  %s = %s" % (nm, t2.poly_str(H.delta[nm])))
    lines += ["", "epsilon"]
    for nm in A.vars:
        lines.append("  %s = %s" % (nm, H.field.scalar_str(H.counit[nm])))
    lines += ["", "antipode"]
    for nm in A.vars:
        lines.append("  %s = %s" % (nm, A.poly_str(H.antipode[nm])))
    if A.aliases:
        lines += ["", "aliases"]
        for nm, d in A.aliases.items():
            lines.append("  %s = %s" % (nm, A.poly_str(Poly(A, d))))
    return "\n".join(lines) + "\n"
