"""Arithmetic in small finite fields GF(p^m), p in {2, 3, 5}, m <= 8.

Scalars are plain Python ints in range(q): the code of an element is the
base-p encoding of its coefficient vector with respect to the power basis
1, g, g^2, ... of the residue class g of x.  Code 0 is zero, code 1 is one,
and for m >= 2 code p is the generator g itself.

All arithmetic is exact and read from tables that every field builds at
construction time: the exp/log tables of the smallest primitive element
(g need not be primitive: in GF(2^8) it has order 51).  A product or a
power is a sum or a multiple of logs, an odd-p sum a Zech logarithm
log(1 + a^i), and negation has a table.  Addition in characteristic 2 is
xor.  `Field.axpy`, the one row kernel the echelon code uses, reads the
same tables.  They cost time and memory in q: GF(3^8) and GF(5^6)
build in under 0.1 s, GF(5^7) in about 0.4 s and 10 MB, GF(5^8) in
about 2 s and 50 MB.

Polynomials over the prime field appear only internally (moduli, the
irreducibility test and the bootstrap of the tables) and are stored as
little-endian coefficient tuples.
"""

from .errors import DivideByZero, ParseError, ReducibleModulus, UnsupportedSize

SUPPORTED_PRIMES = (2, 3, 5)
MAX_DEGREE = 8

# Conventional moduli, pinned so that scalar codes stay stable across
# versions.  Everything else is found by the deterministic search below,
# which returns the irreducible monic polynomial with the smallest code.
DEFAULT_MODULI = {
    (2, 1): (0, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 1): (0, 1),
    (5, 1): (0, 1),
}


def _poly_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_rem(a, mod, p):
    """Remainder of a modulo a monic polynomial, little-endian tuples."""
    a = list(a)
    d = len(mod) - 1
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i] % p
        if c == 0:
            continue
        a[i] = 0
        for j in range(d):
            a[i - d + j] = (a[i - d + j] - c * mod[j]) % p
    return _poly_trim(a[:d])


def _poly_irreducible_factor(mod, p):
    """Return a proper monic factor of mod, or None if mod is irreducible.

    Trial division by every monic polynomial of degree 1 .. deg/2 is cheap
    at the sizes we support (deg <= 8, p <= 5) and needs no factoring
    theory, so the result is easy to audit.
    """
    deg = len(mod) - 1
    if deg <= 1:
        return None
    for d in range(1, deg // 2 + 1):
        for code in range(p ** d):
            cand = _digits(code, p, d) + (1,)
            if not _poly_rem(mod, cand, p):
                return cand
    return None


def _search_modulus(p, m):
    """Smallest-code irreducible monic polynomial of degree m over GF(p)."""
    for code in range(p ** m):
        cand = _digits(code, p, m) + (1,)
        if _poly_irreducible_factor(cand, p) is None:
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _digits(code, p, m):
    out = []
    for _ in range(m):
        out.append(code % p)
        code //= p
    return tuple(out)


def _encode(coeffs, p):
    code = 0
    for c in reversed(coeffs):
        code = code * p + c
    return code


class Field(object):
    """The field GF(p^m) with elements coded as ints in range(p**m)."""

    def __init__(self, p, m=1, modulus=None):
        if p not in SUPPORTED_PRIMES:
            raise UnsupportedSize(f"characteristic {p} not in {SUPPORTED_PRIMES}")
        if not 1 <= m <= MAX_DEGREE:
            raise UnsupportedSize(f"degree {m} not in 1..{MAX_DEGREE}")
        self.p = p
        self.m = m
        self.q = p ** m
        if modulus is None:
            modulus = DEFAULT_MODULI.get((p, m)) or _search_modulus(p, m)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != m + 1 or modulus[m] != 1:
            raise UnsupportedSize(f"modulus must be monic of degree {m}: {modulus}")
        factor = _poly_irreducible_factor(modulus, p)
        if factor is not None:
            raise ReducibleModulus(modulus, factor)
        self.modulus = modulus
        self.gen = _encode(_poly_rem((0, 1), modulus, p), p)
        self._build_tables()

    def _primitive_powers(self):
        """Powers 1, a, ..., a^(q-2) of the smallest primitive element a.

        a is the first code with a^(n/r) != 1 for each prime r | n = q - 1,
        tested by polynomial powers.  Its powers are stepped on digit
        vectors by the matrix of multiplication by a: row i holds
        c * g^i * a for each digit c, one byte per digit, so a step sums
        m rows with no carry (no byte reaches m * (p - 1) < 256) and makes
        no polynomial product.
        """
        p, m, n = self.p, self.m, self.q - 1

        def times(u, v):
            return _poly_rem(_poly_mul(u, v, p), self.modulus, p)

        def power(u, e):
            out = (1,)
            for bit in bin(e)[2:]:
                out = times(out, out)
                if bit == "1":
                    out = times(out, u)
            return out

        primes = [r for r in range(2, n + 1)
                  if n % r == 0 and all(r % s for s in range(2, r))]
        a = next(va for va in (_digits(code, p, m) for code in range(1, self.q))
                 if all(power(va, n // r) != (1,) for r in primes))
        shifts = range(0, 8 * m, 8)
        # a product's trimmed digits zip with the shifts of their bytes
        rows = [[sum((c * d % p) << s for d, s in zip(
                     times((0,) * i + (1,), a), shifts))
                 for c in range(p)] for i in range(m)]
        powers, x = [], (1,) + (0,) * (m - 1)
        for _ in range(n):
            powers.append(_encode(x, p))
            acc = 0
            for row, xi in zip(rows, x):
                acc += row[xi]
            x = [(acc >> s & 255) % p for s in shifts]
        return powers

    def _build_tables(self):
        p, q, n = self.p, self.q, self.q - 1
        exp = self._primitive_powers()
        # log 0 is 2n: every sum of two logs that involves it lands in
        # the zero tail of exp, so mul needs no test for zero
        log = [2 * n] * q
        for i, x in enumerate(exp):
            log[x] = i
        self._log = log
        self._exp = exp + exp + [0] * (2 * n + 1)
        if p != 2:
            # 1 + a^i = a^zech[i] (adding 1 changes the low digit only),
            # and -1 = a^(n/2)
            self._zech = [log[x - x % p + (x + 1) % p] for x in exp]
            self._neg_table = [self._exp[log[x] + n // 2] for x in range(q)]

    # -- basic arithmetic ------------------------------------------------

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        # a + b = a(1 + b/a); a negative index wraps mod q - 1
        return self._exp[la + self._zech[log[b] - la]]

    def neg(self, a):
        if self.p == 2:
            return a
        return self._neg_table[a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        log = self._log
        return self._exp[log[a] + log[b]]

    def inv(self, a):
        if a == 0:
            raise DivideByZero("inverse of zero")
        return self._exp[self.q - 1 - self._log[a]]

    def axpy(self, dst, c, src, support):
        """dst[i] += c * src[i] for every i in support, in place.

        support must cover the nonzero entries of src that should be
        read; entries outside it are left alone.
        """
        exp, log = self._exp, self._log
        lc = log[c]
        if self.p == 2:
            for i in support:
                dst[i] ^= exp[lc + log[src[i]]]
            return
        add = self.add
        for i in support:
            dst[i] = add(dst[i], exp[lc + log[src[i]]])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise DivideByZero("zero to a negative power")
        return self._exp[self._log[a] * e % (self.q - 1)]

    def frob(self, a, r=1):
        """The Frobenius power a -> a^(p^r); r may be any integer mod m."""
        r %= self.m
        # the identity when r is a multiple of m, as on every prime field
        return self.pow(a, self.p ** r) if r else a

    # -- enumeration and diagnostics -------------------------------------

    def elements(self):
        return range(self.q)

    def nonzero(self):
        return range(1, self.q)

    def scalar_from_int(self, k):
        return k % self.p

    def nth_powers(self, n):
        """Sorted list of the distinct values a^n, a nonzero."""
        return sorted({self.pow(a, n) for a in self.nonzero()})

    def scalar_str(self, a):
        """Render a scalar as a polynomial in the generator g."""
        if self.m == 1:
            return str(a)
        terms = []
        for i, c in enumerate(_digits(a, self.p, self.m)):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(head + ("g" if i == 1 else f"g^{i}"))
        if not terms:
            return "0"
        return "+".join(reversed(terms))

    @property
    def name(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.m, self.modulus)
                == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return self.name


def field_from_name(name):
    """Parse field names like GF(16), GF(2^4) or F_16 into a Field."""
    s = name.strip().replace(" ", "")
    for prefix in ("GF(", "gf(", "F(", "f("):
        if s.startswith(prefix) and s.endswith(")"):
            s = s[len(prefix):-1]
            break
    else:
        if s.startswith(("F_", "f_")):
            s = s[2:]
    if "^" in s:
        ps, ms = s.split("^", 1)
        try:
            return Field(int(ps), int(ms))
        except ValueError:
            raise ParseError(f"bad field name {name!r}")
    try:
        q = int(s)
    except ValueError:
        raise ParseError(f"bad field name {name!r}")
    for p in SUPPORTED_PRIMES:
        if q % p == 0:
            m = 0
            n = q
            while n % p == 0:
                n //= p
                m += 1
            if n == 1:
                return Field(p, m)
            break
    raise ParseError(f"field size {q} is not a power of 2, 3 or 5")
