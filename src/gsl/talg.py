"""Truncated polynomial algebras with exact sparse arithmetic.

An Algebra is a commutative ring k[x_1, ..., x_r] over a small finite
field in which every variable carries one of three exponent rules:

* ``nil``     -- x^d = 0; exponents live in 0 .. d-1 and overflow kills
                 the term,
* ``unit``    -- x^d = 1; exponents are reduced mod d (d must be a power
                 of the characteristic, so x - 1 stays nilpotent and the
                 ring stays local),
* ``laurent`` -- no relation; exponents range over all of Z (up to the
                 field width below).

Elements (Poly) are sparse dicts mapping monomial keys to nonzero scalar
codes of the coefficient field.  A key is one int holding the exponents
side by side, packed as in Bachmann & Schoenemann (ISSAC 1998) and
Monagan & Pearce (CASC 2007).  Variable i owns a bit field at a fixed
offset, the first variable lowest:

* a nil or unit variable of order d gets k + 1 bits with 2^k >= d, the
  top one a guard bit.  Reduced exponents leave it clear, and a sum of
  two fits, so the product of two keys is their sum.  With a bias of
  2^k - d added to each field, ``(m + bias) & guard`` is set exactly in
  the fields whose exponent reached d: there a nil term dies and a unit
  exponent wraps by taking d off;
* a laurent field holds e + 5 * 2^31 in 34 bits.  The product of two
  keys is their sum less the zero key, and its exponent e stays in
  [-2^31, 2^31) exactly when the field's guard, bit 32, stays clear;
  past that a product raises SizeGuard.

So divisibility of reduced keys is ``((m | guard) - t) & guard == guard``
and the quotient is m - t.  The int order of keys is the lex order with
the last variable most significant: the Groebner side, the staircase and
every basis listing sort and compare keys directly.  A TensorAlgebra
lays out factor k's own fields shifted past factor k - 1's, so a leg is
a shift and a mask, and joining legs is an OR.  The key format is known
to this module alone: ``Algebra.poly`` and ``monomial`` also take
exponent tuples and pack them, and ``exponents``, ``exponent``,
``degree``, ``split_mono`` and ``join_mono`` read keys for everyone
else.

``_sum_terms`` sums c * m, or c times the image of m, over a stream of
terms: ``poly``, ``invert_unit``, ``_sum_images``, ``multiply_legs`` and
the leg groups of ``map_leg`` use it.  The hot sums keep loops of their
own, because the call and its checks cost more than the loop: the term
products of ``mul_dicts``, ``reduce_dict``, ``QuotientAlgebra``'s
``_normal_form``, the last slot of ``map_leg``, ``Poly.__add__``,
``Poly._frobenius_power`` and the Groebner side's ``add_times``.
Over GF(2) every nonzero code is 1, so ``_sum_terms``, ``mul_dicts``,
``reduce_dict`` and ``map_leg`` add a term by toggling its key: deleted
if present, else inserted at the end.  That is what the generic path
does with a sum that cancels or a key that is new, so the terms come
out in the same insertion order, which is the order in which reports
list failures.

A QuotientAlgebra divides a free finite Algebra by an ideal held as its
Groebner basis: the reduced basis is the staircase of monomials that no
leading monomial divides, listed from the leading keys alone, and the
residue of a monomial is its normal form by division, memoised, so
reduced arithmetic costs little more than free arithmetic and nothing as
wide as the monomial shell is laid out.  The Groebner basis comes from
generators by Buchberger's algorithm (``quotient_algebra``), or, for the
kernel of an algebra map out of a free algebra, from the staircase walk
of ``_evaluation_quotient``, which reads the reduced basis off the
images of the staircase and its border, or, for an ideal given in
coordinates, off its echelon rows (``_echelon_quotient``).  A
TensorAlgebra glues several algebras side by side and reduces factor by
factor, which never materialises the big tensor ideal.  ``apply_map``
substitutes through memoised monomial images, one product per new
monomial, and ``map_leg`` substitutes into legs of a tensor element with
no product or reduction at all.

Every algebra lists its reduced basis once, on first use, and the one
coordinate map, ``to_vector``/``from_vector``, reads a vector over that
list.  Each such cache is an attribute declared in ``Algebra.__init__``;
the tensor square A (x) A is shared through a weak reference, so no
algebra is part of a reference cycle.

Size guards (SizeGuard, against DIM_LIMIT) sit where something dense is
materialised: the monomial shell of a free algebra, the reduced basis
of a quotient (its staircase is counted before it is listed), and a
tensor's reduced basis (``basis_monomials``, hence coordinates).  A
quotient's shell is never listed, so it may pass DIM_LIMIT when built
with ``dim_guard=False``; building a tensor product materialises
nothing and is never refused.

Nothing here knows about comultiplications; Hopf structure lives one
layer up.
"""

import heapq
import math
import weakref

from .errors import BadParams, NonUnit, NotHomogeneous, SizeGuard
from .linalg import Subspace

DIM_LIMIT = 1 << 20

_UNSEEN = object()

_KINDS = ("nil", "unit", "laurent")

# a laurent field: 32 value bits, the guard, and one bit above it; an
# exponent e is held as e + _LAURENT_ZERO
_LAURENT_BITS = 32
_LAURENT_ZERO = 5 << (_LAURENT_BITS - 1)
_LAURENT_RANGE = 1 << (_LAURENT_BITS - 1)

# (orders, kinds) -> its _Layout, filled on first use
_LAYOUTS = {}


class _Layout(object):
    """The bit fields of one list of variables (see the module docstring):
    per variable its offset, field mask and zero value, and over all of
    them the zero key, the bias and the guard bits of the product rule."""

    __slots__ = ("offs", "masks", "zeros", "width", "zero", "bias", "guard",
                 "all_nil", "nil_guard", "nil_bits", "laurent_guard",
                 "laurent_bits", "unit_wraps", "wraps", "var_at")

    def __init__(self, orders, kinds):
        self.offs, self.masks, self.zeros, self.var_at = [], [], [], []
        off = zero = bias = guard = 0
        nil_guard = nil_bits = laurent_guard = laurent_bits = 0
        self.unit_wraps = {}
        for i, (d, kind) in enumerate(zip(orders, kinds)):
            if kind == "laurent":
                k, z, width = _LAURENT_BITS, _LAURENT_ZERO, _LAURENT_BITS + 2
            else:
                k, z = (d - 1).bit_length(), 0
                width = k + 1
                bias |= ((1 << k) - d) << off
            mask = (1 << width) - 1
            g = 1 << (off + k)
            if kind == "nil":
                nil_guard |= g
                nil_bits |= mask << off
            elif kind == "unit":
                self.unit_wraps[g] = d << off
            else:
                laurent_guard |= g
                laurent_bits |= mask << off
            self.offs.append(off)
            self.masks.append(mask)
            self.zeros.append(z)
            self.var_at += [i] * width
            zero |= z << off
            guard |= g
            off += width
        self.width, self.zero, self.bias, self.guard = off, zero, bias, guard
        self.all_nil = nil_guard == guard
        self.nil_guard, self.nil_bits = nil_guard, nil_bits
        self.laurent_guard, self.laurent_bits = laurent_guard, laurent_bits
        # overflow bits of unit fields -> what wraps them back
        self.wraps = {}

    def fix(self, m, o):
        """The key of a sum m of keys (less the zero key) whose fields
        overflowed at the guard bits o: None if a nil field did, else m
        with each unit field wrapped; SizeGuard if a laurent field did."""
        if o & self.nil_guard:
            return None
        if o & self.laurent_guard:
            raise SizeGuard("laurent exponent", _LAURENT_RANGE,
                            _LAURENT_RANGE - 1)
        w = self.wraps.get(o)
        if w is None:
            w = self.wraps[o] = sum(a for g, a in self.unit_wraps.items()
                                    if o & g)
        return m - w


def _layout(orders, kinds):
    lay = _LAYOUTS.get((orders, kinds))
    if lay is None:
        lay = _LAYOUTS[orders, kinds] = _Layout(orders, kinds)
    return lay


def _divides(t, m, guard):
    """Whether the reduced key t divides the key m: no field of
    (m | guard) - t borrows from its guard bit."""
    return ((m | guard) - t) & guard == guard


def _scalar_leg(c):
    """A ``map_leg`` image that drops the leg, scaling by c."""
    return {0: c} if c else {}


class Poly(object):
    """A sparse element of an Algebra, {key: nonzero code} over the
    packed monomial keys of the module docstring; immutable by
    convention."""

    __slots__ = ("alg", "d")

    def __init__(self, alg, d):
        self.alg = alg
        self.d = d

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.alg is not self.alg:
                raise BadParams("operands live in different algebras")
            return other
        if isinstance(other, int):
            return self.alg.scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.alg.field
        d = dict(self.d)
        for m, c in other.d.items():
            s = F.add(d.get(m, 0), c)
            if s:
                d[m] = s
            else:
                d.pop(m, None)
        return Poly(self.alg, d)

    __radd__ = __add__

    def __neg__(self):
        F = self.alg.field
        return Poly(self.alg, {m: F.neg(c) for m, c in self.d.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly(self.alg, self.alg.mul_dicts(self.d, other.d))

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        return Poly(self.alg, _power({1: self.d}, e, self.alg))

    def _frobenius_power(self):
        """self^p, taken termwise: the p-th power is additive in
        characteristic p.  The sum stays inline: through ``_sum_terms``
        each term was built as a pair first, which cost more than the
        loop."""
        alg = self.alg
        F = alg.field
        d = {}
        for m, c in self.d.items():
            mp = alg._mono_pow(m, F.p)
            if mp is None:
                continue
            s = F.add(d.get(mp, 0), F.frob(c))
            if s:
                d[mp] = s
            else:
                del d[mp]
        return Poly(alg, d if alg._plain else alg.reduce_dict(d))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.alg.scalar(other)
        return isinstance(other, Poly) and self.alg is other.alg and self.d == other.d

    def __bool__(self):
        return bool(self.d)

    def __hash__(self):
        return hash((id(self.alg), frozenset(self.d.items())))

    # -- inspection ----------------------------------------------------------

    def constant_term(self):
        return self.d.get(self.alg._zero_mono, 0)

    def __str__(self):
        return self.alg.poly_str(self)

    def __repr__(self):
        return f"<{self.alg.poly_str(self)}>"


class Algebra(object):
    """Free truncated polynomial ring; base class for all algebras here."""

    def __init__(self, field, names, orders, kinds=None, allow_ticks=False,
                 dim_guard=True):
        names = tuple(names)
        orders = tuple(orders)
        if kinds is None:
            kinds = ("nil",) * len(names)
        kinds = tuple(kinds)
        if len({*names}) != len(names):
            raise BadParams(f"duplicate variable names in {names}")
        if not allow_ticks:
            for nm in names:
                if "'" in nm:
                    raise BadParams(f"variable name {nm!r} contains a tensor tick")
        if len(orders) != len(names) or len(kinds) != len(names):
            raise BadParams("names, orders and kinds must have equal length")
        for nm, d, k in zip(names, orders, kinds):
            if k not in _KINDS:
                raise BadParams(f"unknown exponent rule {k!r} for {nm}")
            if k == "laurent":
                continue
            if d < 2:
                raise BadParams(f"order of {nm} must be at least 2, got {d}")
            if k == "unit":
                dd = d
                while dd % field.p == 0:
                    dd //= field.p
                if dd != 1:
                    raise BadParams(
                        f"unit variable {nm} needs order a power of {field.p}")
        self.field = field
        self.vars = names
        self.orders = orders
        self.kinds = kinds
        self.aliases = {}
        self.dim = None if "laurent" in kinds else math.prod(orders)
        if dim_guard and self.dim is not None and self.dim > DIM_LIMIT:
            raise SizeGuard("algebra dimension", self.dim, DIM_LIMIT)
        self._lay = _layout(orders, kinds)
        self._zero_mono = self._lay.zero
        # filled on first use: basis_monomials(), each one's position in
        # it, and a weak reference to self (x) self
        self._basis = None
        self._basis_pos = None
        self._square_ref = None
        # whether reduce_term is always None, so products need no reduction
        self._plain = type(self).reduce_term is Algebra.reduce_term

    @property
    def ambient(self):
        return self

    # -- monomial keys -------------------------------------------------------

    def ambient_dim(self):
        return math.prod(self.orders)

    def _pack(self, exps):
        """The key of an exponent tuple under the exponent rules, or None
        when a nil exponent reaches its order."""
        if len(exps) != len(self.vars):
            raise BadParams(
                f"expected {len(self.vars)} exponents, got {exps!r}")
        lay = self._lay
        m = wide = 0
        for e, d, kind, off, z in zip(exps, self.orders, self.kinds,
                                      lay.offs, lay.zeros):
            if kind == "nil":
                if e < 0:
                    raise BadParams(f"negative exponent {e} on a nil variable")
                if e >= d:
                    return None
            elif kind == "unit":
                e %= d
            elif not -_LAURENT_RANGE <= e < _LAURENT_RANGE:
                wide = max(wide, abs(e))
            m |= (e + z) << off
        if wide:
            raise SizeGuard("laurent exponent", wide, _LAURENT_RANGE - 1)
        return m

    def _exponents(self, m):
        lay = self._lay
        return tuple(((m >> off) & mask) - z for off, mask, z
                     in zip(lay.offs, lay.masks, lay.zeros))

    def exponents(self, m):
        """The exponent tuple of the key m, in the order of ``vars``."""
        return self._exponents(m)

    def exponent(self, m, i):
        """The exponent of variable ``vars[i]`` in the key m."""
        lay = self._lay
        return ((m >> lay.offs[i]) & lay.masks[i]) - lay.zeros[i]

    def degree(self, m):
        """The exponent sum of the key m."""
        return sum(self._exponents(m))

    def _mono_mul(self, m1, m2):
        """Product of two keys, or None when a nil power dies."""
        lay = self._lay
        m = m1 + m2 - lay.zero
        o = (m + lay.bias) & lay.guard
        return lay.fix(m, o) if o else m

    def _mono_pow(self, m, k):
        """The key m^k for k >= 1, or None when a nil power dies."""
        out = m
        try:
            for _ in range(k - 1):
                out = self._mono_mul(out, m)
                if out is None:
                    return None
        except SizeGuard:
            # a laurent field left its range before a nil power died
            return self._pack(tuple(e * k for e in self._exponents(m)))
        return out

    def monomials(self):
        """All keys of the (ambient) free ring, in index order."""
        if self.dim is None:
            raise BadParams("no finite monomial basis with laurent variables")
        return _stair_list(self.orders, self._lay.offs, [], self._lay.guard)

    def basis_monomials(self):
        """The reduced basis, listed once; a monomial's position in it is
        its coordinate in ``to_vector``."""
        if self._basis is None:
            self._basis = self._list_basis()
        return self._basis

    def _list_basis(self):
        return self.monomials()

    def _positions(self):
        """Monomial -> its position in ``basis_monomials()``."""
        if self._basis_pos is None:
            self._basis_pos = {m: i for i, m
                               in enumerate(self.basis_monomials())}
        return self._basis_pos

    # -- term reduction --------------------------------------------------------

    def reduce_term(self, m):
        """Residue of a single monomial as a dict; identity in a free ring."""
        return None  # None signals "already reduced", saves dict churn

    def reduce_dict(self, d):
        if self._plain:
            # every key is its own residue, and a dict repeats none
            return {m: c for m, c in d.items() if c}
        out = {}
        F = self.field
        if F.q == 2:
            # every nonzero code is 1: toggle the key (see the module
            # docstring); a zero code adds nothing
            for m, c in d.items():
                if not c:
                    continue
                red = self.reduce_term(m)
                for m2 in (m,) if red is None else red:
                    if m2 in out:
                        del out[m2]
                    else:
                        out[m2] = 1
            return out
        for m, c in d.items():
            red = self.reduce_term(m)
            if red is None:
                s = F.add(out.get(m, 0), c)
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
                continue
            for m2, c2 in red.items():
                s = F.add(out.get(m2, 0), F.mul(c, c2))
                if s:
                    out[m2] = s
                else:
                    out.pop(m2, None)
        return out

    def mul_dicts(self, d1, d2):
        lay = self._lay
        zero, bias, guard, fix, dies = (lay.zero, lay.bias, lay.guard, lay.fix,
                                        lay.all_nil)
        acc = {}
        if len(d1) > len(d2):
            d1, d2 = d2, d1
        if self.field.q == 2:
            # every code is 1: toggle the key (see the module docstring)
            for m1 in d1:
                b = m1 - zero
                for m2 in d2:
                    m = b + m2
                    o = (m + bias) & guard
                    if o:
                        if dies:
                            continue
                        m = fix(m, o)
                        if m is None:
                            continue
                    if m in acc:
                        del acc[m]
                    else:
                        acc[m] = 1
            return acc if self._plain else self.reduce_dict(acc)
        add, mul = self.field.add, self.field.mul
        for m1, c1 in d1.items():
            b = m1 - zero
            for m2, c2 in d2.items():
                # the product of keys is their sum (see the module docstring)
                m = b + m2
                o = (m + bias) & guard
                if o:
                    if dies:
                        continue
                    m = fix(m, o)
                    if m is None:
                        continue
                c = mul(c1, c2)
                s = add(acc.get(m, 0), c)
                if s:
                    acc[m] = s
                else:
                    acc.pop(m, None)
        return acc if self._plain else self.reduce_dict(acc)

    # -- element constructors ---------------------------------------------------

    def zero(self):
        return Poly(self, {})

    def one(self):
        return Poly(self, {self._zero_mono: 1})

    def scalar(self, code):
        if not 0 <= code < self.field.q:
            raise BadParams(f"scalar code {code} outside field {self.field.name}")
        if code == 0:
            return self.zero()
        return Poly(self, {self._zero_mono: code})

    def scalar_int(self, k):
        return self.scalar(k % self.field.p)

    def _var_index(self, name):
        try:
            return self.vars.index(name)
        except ValueError:
            raise BadParams(
                f"no variable named {name!r} in {self.vars}") from None

    def var(self, name):
        if name not in self.vars:
            alias = self.aliases.get(name)
            if alias is not None:
                return Poly(self, alias)
            raise BadParams(f"no variable or alias named {name!r} in {self.vars}")
        m = self._zero_mono + (1 << self._lay.offs[self.vars.index(name)])
        return Poly(self, self.reduce_dict({m: 1}))

    def gens(self):
        return tuple(self.var(nm) for nm in self.vars)

    def monomial(self, exps):
        """Poly for an exponent dict {name: e}, an exponent tuple or a key;
        exponents follow the exponent rules (a nil power may die)."""
        if isinstance(exps, dict):
            m = [0] * len(self.vars)
            for nm, e in exps.items():
                m[self._var_index(nm)] = e
            exps = tuple(m)
        m = exps if isinstance(exps, int) else self._pack(tuple(exps))
        return Poly(self, {} if m is None else self.reduce_dict({m: 1}))

    def poly(self, d):
        """Wrap a dict over reduced keys or exponent tuples (packed under
        the exponent rules); reduces mod the ideal."""
        if any(type(m) is tuple for m in d):
            # a tuple packs to its key, or to None when a nil power dies
            keys = ((self._pack(m) if type(m) is tuple else m, c)
                    for m, c in d.items())
            d = _sum_terms(((m, c) for m, c in keys if m is not None), None,
                           self.field)
        return Poly(self, self.reduce_dict(d))

    # -- vectors -------------------------------------------------------------

    def to_vector(self, f):
        """Coordinates of f over ``basis_monomials()``, a list of dim codes."""
        if f.alg is not self:
            raise BadParams("element lives in another algebra")
        pos = self._positions()
        vec = [0] * self.dim
        for m, c in f.d.items():
            vec[pos[m]] = c
        return vec

    def from_vector(self, vec):
        """The element with coordinates vec, the inverse of ``to_vector``."""
        basis = self.basis_monomials()
        if len(vec) != len(basis):
            raise BadParams(
                f"expected {len(basis)} coordinates, got {len(vec)}")
        # basis monomials are reduced
        return Poly(self, {basis[i]: c for i, c in enumerate(vec) if c})

    # -- misc ------------------------------------------------------------------

    def tensor(self, *others):
        return TensorAlgebra((self,) + others)

    def _square(self):
        """self (x) self, one algebra for every caller while any of them
        holds it.  It is held here by weak reference only: it holds self
        as its factors, and nothing points back."""
        t2 = None if self._square_ref is None else self._square_ref()
        if t2 is None:
            t2 = TensorAlgebra((self, self))
            self._square_ref = weakref.ref(t2)
        return t2

    def poly_str(self, f):
        if not f.d:
            return "0"
        F = self.field
        terms = []
        # by total degree, then by exponent tuple, first variable first
        for m, c in sorted(((self._exponents(m), c) for m, c in f.d.items()),
                           key=lambda t: (sum(map(abs, t[0])), t[0])):
            parts = []
            for nm, e in zip(self.vars, m):
                if e == 0:
                    continue
                parts.append(nm if e == 1 else f"{nm}^{e}")
            cs = F.scalar_str(c)
            if not parts:
                terms.append(cs)
            else:
                body = "*".join(parts)
                if cs == "1":
                    terms.append(body)
                elif "+" in cs:
                    terms.append(f"({cs})*{body}")
                else:
                    terms.append(f"{cs}*{body}")
        return " + ".join(terms)

    def describe(self):
        bits = []
        for nm, d, k in zip(self.vars, self.orders, self.kinds):
            if k == "nil":
                bits.append(f"{nm}^{d}=0")
            elif k == "unit":
                bits.append(f"{nm}^{d}=1")
            else:
                bits.append(f"{nm} laurent")
        return f"{self.field.name}[{', '.join(self.vars)}; {'; '.join(bits)}]"

    def __repr__(self):
        return self.describe()


class QuotientAlgebra(Algebra):
    """A finite Algebra modulo an ideal, held as its Groebner basis.

    ``groebner`` lists monic Polys of the free ambient ring that, with the
    ambient's truncation relations, form a Groebner basis of the ideal
    under lex order with the last variable most significant, which is the
    int order of the keys; ``quotient_algebra`` supplies a minimal one and
    ``_evaluation_quotient`` the reduced one (Cox, Little & O'Shea, ch. 2
    sec. 6 and ch. 5 sec. 3).
    The reduced basis is the staircase, the monomials that no leading
    monomial divides, counted at construction (SizeGuard "quotient basis"
    past DIM_LIMIT) and listed on demand.  ``reduce_term`` is the normal
    form by division, memoised per monomial; it is the residue modulo
    the largest-pivot echelon form of the ideal.  Every Poly is stored
    reduced, supported on the staircase.  ``aliases`` maps names of
    variables that were eliminated during presentation to their
    expressions here, as reduced term dicts that ``var`` wraps.
    """

    def __init__(self, ambient, groebner, gens=None, aliases=None):
        if ambient.dim is None:
            raise BadParams("cannot divide a ring with laurent variables")
        # the shell is only divided, never listed
        Algebra.__init__(self, ambient.field, ambient.vars, ambient.orders,
                         ambient.kinds, allow_ticks=True, dim_guard=False)
        self._ambient = ambient
        self.ideal_gens = [] if gens is None else list(gens)
        F = self.field
        self.groebner, self._leads = [], []
        for g in groebner:
            t = max(g.d)
            c = F.inv(g.d[t])
            self.groebner.append(Poly(ambient, {m: F.mul(c, x)
                                                for m, x in g.d.items()}))
            # division by g: t -> sum of (-c * x) * s over its tail
            self._leads.append((t, [(m, F.neg(F.mul(c, x)))
                                    for m, x in g.d.items() if m != t]))
        self.dim = _stair_count(self.orders, self._lay.offs,
                                [t for t, _ in self._leads], self._lay.guard)
        if self.dim > DIM_LIMIT:
            raise SizeGuard("quotient basis", self.dim, DIM_LIMIT)
        if not self.dim:
            self.__class__ = _ZeroRing
        self._memo = {}
        if aliases:
            for nm, f in aliases.items():
                self.aliases[nm] = self.reduce_dict(f.d)

    @property
    def ambient(self):
        return self._ambient

    def _list_basis(self):
        return _stair_list(self.orders, self._lay.offs,
                           [t for t, _ in self._leads], self._lay.guard)

    def reduce_term(self, m):
        hit = self._memo.get(m, _UNSEEN)
        if hit is _UNSEEN:
            hit = self._normal_form(m)
        return hit

    def _division_step(self, m):
        """m less a multiple of the first basis element whose leading
        monomial divides it, as {monomial: c}; None on the staircase."""
        guard = self._lay.guard
        for t, tail in self._leads:
            if _divides(t, m, guard):
                u = m - t
                # x^u is injective on the shell: no two terms meet
                out = {}
                for s, c in tail:
                    su = self._mono_mul(s, u)
                    if su is not None:
                        out[su] = c
                return out
        return None

    def _normal_form(self, m):
        """Fill the memo for m by division, depth first on an explicit
        stack: a division chain may be as long as the shell is wide."""
        F, memo = self.field, self._memo
        steps = {}
        stack = [m]
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            step = steps.get(top)
            if step is None:
                step = self._division_step(top)
                if step is None:
                    # a staircase monomial is its own residue
                    memo[top] = None
                    stack.pop()
                    continue
                steps[top] = step
            todo = [s for s in step if s not in memo]
            if todo:
                # every term is smaller than top, so this ends
                stack.extend(todo)
                continue
            stack.pop()
            out = {}
            for s, c in step.items():
                nf = memo[s]
                for s2, c2 in ({s: 1} if nf is None else nf).items():
                    v = F.add(out.get(s2, 0), F.mul(c, c2))
                    if v:
                        out[s2] = v
                    else:
                        del out[s2]
            memo[top] = out
        return memo[m]

    def lift(self, f):
        """The canonical representative of f in the ambient free ring."""
        return Poly(self._ambient, dict(f.d))

    def describe(self):
        base = Algebra.describe(self)
        return f"{base} / ideal(dim {self.ambient_dim() - self.dim})"


class _ZeroRing(QuotientAlgebra):
    """A quotient by the unit ideal, where 1 = 0.  A QuotientAlgebra
    with an empty staircase takes this class, so that its unit and
    scalars are the zero element while a nonzero ring's constructors
    stay as they are."""

    def one(self):
        return self.zero()

    def scalar(self, code):
        Algebra.scalar(self, code)  # refuses a code outside the field
        return self.zero()


def _slices(orders, offs, tops, guard):
    """The box of ``orders`` cut along its last variable, the top field of
    the keys, wherever the set of leading keys that can divide changes:
    (lo, hi, those leading keys less their last field, minimal under
    division)."""
    off = offs[len(orders) - 1]
    low = (1 << off) - 1
    cuts = sorted({t >> off for t in tops} | {0}) + [orders[-1]]
    for lo, hi in zip(cuts, cuts[1:]):
        sub = {t & low for t in tops if t >> off <= lo}
        yield lo, hi, [t for t in sub if not any(
            u != t and _divides(u, t, guard) for u in sub)]


def _stair_count(orders, offs, tops, guard):
    """How many monomials of the box no leading key divides."""
    if 0 in tops:
        return 0
    if not orders:
        return 1
    return sum((hi - lo) * _stair_count(orders[:-1], offs, sub, guard)
               for lo, hi, sub in _slices(orders, offs, tops, guard))


def _stair_list(orders, offs, tops, guard):
    """Those monomials' keys in index order, which is key order."""
    if 0 in tops:
        return []
    if not orders:
        return [0]
    off = offs[len(orders) - 1]
    out = []
    for lo, hi, sub in _slices(orders, offs, tops, guard):
        low = _stair_list(orders[:-1], offs, sub, guard)
        for e in range(lo, hi):
            out += [s | (e << off) for s in low]
    return out


class TensorAlgebra(Algebra):
    """Tensor product of algebras, reduced factor by factor.

    Variables of factor k are renamed by appending k apostrophes, so
    A (x) A has variables T and T'.  Reduction applies each factor's
    monomial residue map in turn; for ideals I, J this is exactly
    reduction modulo I (x) B + A (x) J.  So a monomial is reduced exactly
    when each of its legs is, and its key is the legs' keys, each shifted
    to its factor's bit span (``_spans``) and OR-ed together.

    All arithmetic is sparse, so any number of factors of any dimension
    may be glued; ``dim`` is only the product of the factor dimensions.
    Only ``basis_monomials`` (and the coordinates, which go through it)
    lists the basis, and refuses past DIM_LIMIT.
    """

    def __init__(self, factors):
        flat = []
        for f in factors:
            if isinstance(f, TensorAlgebra):
                flat.extend(f.factors)
            else:
                flat.append(f)
        factors = tuple(flat)
        if not factors:
            raise BadParams("tensor product needs at least one factor")
        field = factors[0].field
        names, orders, kinds = [], [], []
        for k, fac in enumerate(factors):
            if fac.field != field:
                raise BadParams("tensor factors over different fields")
            tick = "'" * k
            for nm, d, kd in zip(fac.vars, fac.orders, fac.kinds):
                names.append(nm + tick)
                orders.append(d)
                kinds.append(kd)
        # neither the shell nor the reduced basis is materialised here
        Algebra.__init__(self, field, names, orders, kinds, allow_ticks=True,
                         dim_guard=False)
        self.factors = factors
        # factor k's bits: its own layout shifted past factor k - 1's
        self._spans = []
        off = 0
        for fac in factors:
            self._spans.append((off, off + fac._lay.width))
            off += fac._lay.width
        dims = [fac.dim for fac in factors]
        self.dim = None if None in dims else math.prod(dims)
        self._plain = all(fac._plain for fac in factors)
        # (slots, target width) -> ``_leg_plan``, filled on first use
        self._leg_plans = {}
        # key -> its residue (``reduce_term``), filled on first use
        self._memo = {}

    def _leg_plan(self, slots, width):
        """Where ``map_leg`` puts the legs of a key in a target ``width``
        bits wide whose legs at ``slots`` are replaced by runs of equal
        width: (runs, at).  A run (a, mask, p) moves the kept bits
        (m >> a) & mask to p; ``at[s]`` is where slot s's image goes."""
        plan = self._leg_plans.get((slots, width))
        if plan is None:
            spans = self._spans
            kept = self._lay.width - sum(spans[s][1] - spans[s][0]
                                         for s in slots)
            size = (width - kept) // len(slots)
            runs, at, pos = [], {}, 0
            for j, (a, b) in enumerate(spans):
                if j in slots:
                    at[j] = pos
                    pos += size
                    continue
                if runs and runs[-1][0] + runs[-1][1] == a:
                    runs[-1][1] += b - a  # the leg before stays too
                else:
                    runs.append([a, b - a, pos])
                pos += b - a
            runs = [(a, (1 << w) - 1, p) for a, w, p in runs]
            plan = self._leg_plans[slots, width] = (runs, at)
        return plan

    def reduce_term(self, m):
        """The residue of the key m, memoised like a quotient's: the
        product of its legs' residues, or None when every leg is reduced."""
        if self._plain:
            return None
        hit = self._memo.get(m, _UNSEEN)
        if hit is _UNSEEN:
            hit = self._memo[m] = self._join_residues(m)
        return hit

    def _join_residues(self, m):
        mul = self.field.mul
        acc = None
        for fac, (a, b) in zip(self.factors, self._spans):
            mask = (1 << (b - a)) - 1
            red = fac.reduce_term((m >> a) & mask)
            if red is None:
                continue
            if acc is None:
                acc = {m: 1}
            hole = ~(mask << a)
            # the legs sit in disjoint bit spans, so no two keys meet
            acc = {(h & hole) | (sub << a): mul(c, c2)
                   for h, c in acc.items() for sub, c2 in red.items()}
        return acc

    def embed(self, f, slot):
        """Image of f under the inclusion of factor ``slot``."""
        fac = self.factors[slot]
        if f.alg is not fac:
            raise BadParams("element does not live in the requested factor")
        a, b = self._spans[slot]
        # the other legs are 1
        rest = self._zero_mono & ~(((1 << (b - a)) - 1) << a)
        return Poly(self, {rest | (m << a): c for m, c in f.d.items()})

    def elem(self, *parts):
        """The pure tensor part_0 (x) part_1 (x) ... as an element here."""
        if len(parts) != len(self.factors):
            raise BadParams(f"expected {len(self.factors)} tensor legs")
        mul = self.field.mul
        out = {0: 1}
        for fac, f, (a, _) in zip(self.factors, parts, self._spans):
            if f.alg is not fac:
                raise BadParams("element does not live in the requested factor")
            # reduced legs join to a reduced key, and no two meet
            out = {head | (m << a): mul(c, c2)
                   for head, c in out.items() for m, c2 in f.d.items()}
        return Poly(self, out)

    def split_mono(self, m):
        """The legs of the key m: one key of each factor."""
        return tuple((m >> a) & ((1 << (b - a)) - 1) for a, b in self._spans)

    def join_mono(self, legs):
        """The key whose legs are the given keys of the factors, the
        inverse of ``split_mono``."""
        if len(legs) != len(self._spans):
            raise BadParams(f"expected {len(self._spans)} tensor legs")
        m = 0
        for leg, (a, _) in zip(legs, self._spans):
            m |= leg << a
        return m

    def _list_basis(self):
        if self.dim is None:
            raise BadParams("no finite monomial basis with laurent variables")
        if self.dim > DIM_LIMIT:
            raise SizeGuard("tensor basis_monomials", self.dim, DIM_LIMIT)
        out = [0]
        for fac, (a, _) in zip(self.factors, self._spans):
            out = [head | (sub << a) for sub in fac.basis_monomials()
                   for head in out]
        return out


# -- ideals and quotients --------------------------------------------------


def _require_free(alg):
    """Refuse what is not a free finite algebra: an Algebra, or a
    TensorAlgebra of Algebras.  In a quotient, or a tensor with a
    quotient factor, shell arithmetic is not the product."""
    if alg.dim is None:
        raise BadParams("ideals need a finite algebra")
    if not alg._plain:
        raise BadParams(f"ideal closure needs a free algebra, not {alg!r}")


def _groebner(alg, gens):
    """A minimal Groebner basis of the ideal of ``gens`` and the
    truncation relations, less those relations: monic Polys of the free
    algebra ``alg``, in the order of their leading monomials.

    Buchberger's algorithm (Cox, Little & O'Shea, ch. 2) on monic shell
    polynomials over the algebra's keys, whose int order is the monomial
    order and whose own product reduces by x^d (nil) and x^d - 1 (unit).
    The S-pair of g with the relation of x_v, when x_v^e divides LT(g),
    e > 0, is the shell product x_v^(d-e) * g.  Pairs go smallest lcm
    first; a pair is skipped when its leading monomials are coprime, or
    when a third element's leading monomial divides its lcm and that
    element's pairs with both are done (Buchberger's second criterion).
    """
    _require_free(alg)
    F, mul, guard = alg.field, alg._mono_mul, alg._lay.guard
    offs, exponents = alg._lay.offs, alg._exponents
    # (leading key, element, leading exponents)
    basis, pairs, pending = [], [], set()

    def add_times(f, c, u, g, todo=None):
        # f += c * x^u * g in place, pushing each key touched onto todo
        for k, cg in g.items():
            s = mul(k, u)
            if s is not None:
                val = F.add(f.get(s, 0), F.mul(c, cg))
                if val:
                    f[s] = val
                else:
                    del f[s]
                if todo is not None:
                    heapq.heappush(todo, -s)
        return f

    def reduce(f):
        # leading terms come off a heap of the keys f has held: a
        # division step only adds terms below the one it cancels
        todo = [-k for k in f]
        heapq.heapify(todo)
        while todo:
            lt = -heapq.heappop(todo)
            if lt not in f:
                continue
            for t, g, _ in basis:
                if _divides(t, lt, guard):
                    add_times(f, F.neg(f[lt]), lt - t, g, todo)
                    break
            else:
                c = F.inv(f[lt])
                return {k: F.mul(c, x) for k, x in f.items()}
        return None

    def add(h):
        # a pair is (lcm, i, j); j = ~v stands for the relation of x_v,
        # and that lcm carries x_v^d, one past the field's range
        i, t = len(basis), max(h)
        te = exponents(t)
        for j, (_, _, ue) in enumerate(basis):
            if any(a and b for a, b in zip(te, ue)):
                l = sum(max(a, b) << off for a, b, off in zip(te, ue, offs))
                heapq.heappush(pairs, (l, j, i))
                pending.add((j, i))
        for v, (e, d, off) in enumerate(zip(te, alg.orders, offs)):
            if e:
                heapq.heappush(pairs, (t + ((d - e) << off), i, ~v))
                pending.add((i, ~v))
        basis.append((t, h, te))

    def done(k, j):
        return ((k, j) if j < 0 else (min(k, j), max(k, j))) not in pending

    for g in gens:
        h = reduce(dict(g.d))
        if h:
            add(h)
    while pairs:
        l, i, j = heapq.heappop(pairs)
        pending.discard((i, j))
        if any(k != i and k != j and _divides(t, l, guard) and done(k, i)
               and done(k, j) for k, (t, _, _) in enumerate(basis)):
            continue
        t, g, _ = basis[i]
        s = add_times({}, 1, l - t, g)
        if j >= 0:
            t, g, _ = basis[j]
            add_times(s, F.neg(1), l - t, g)
        h = reduce(s)
        if h:
            add(h)
    return [Poly(alg, g) for t, g, _ in sorted(basis, key=lambda b: b[0])
            if not any(u != t and _divides(u, t, guard) for u, _, _ in basis)]


def quotient_algebra(ambient, gens, eliminate=True, aliases=None):
    """Divide a finite free algebra by the ideal the generators span.

    With ``eliminate`` set, generators that pin a variable to an
    expression in the others are first used to rewrite the presentation
    on fewer variables; the record of substitutions ends up in the
    result's ``aliases``.
    """
    gens = [g for g in gens if g]
    alias_acc = dict(aliases) if aliases else {}
    if eliminate:
        ambient, gens, found = eliminate_linear(ambient, gens)
        for nm, f in alias_acc.items():
            alias_acc[nm] = apply_map(f, dict(found), ambient)
        alias_acc.update(found)
    return QuotientAlgebra(ambient, _groebner(ambient, gens), gens, alias_acc)


def _echelon_quotient(alg, S):
    """alg modulo an ideal S given in coordinates: (Q, pi, gens).

    S's rows pivot on their largest key and are fully reduced, so the row
    with pivot t is t - nf(t), and the ideal's leading keys in the shell
    are alg's own and the pivots.  So alg's Groebner basis and the rows
    with divisor-minimal pivots (gens, which generate S) are a Groebner
    basis: nothing is divided.  The projection pi is Q's memoised
    residue, as alg's keys are keys of Q's shell.  S must be an ideal.
    """
    basis, guard, F = alg.basis_monomials(), alg._lay.guard, alg.field
    gens, leads = [], []
    # pivots ascend by key, and a divisor of a key is no larger
    for l in S.pivots():
        t = basis[l]
        if not any(_divides(s, t, guard) for s in leads):
            leads.append(t)
            res = S.residue([int(i == l) for i in range(alg.dim)])
            row = {basis[i]: F.neg(c) for i, c in enumerate(res) if c}
            row[t] = 1
            gens.append(Poly(alg, row))
    own = list(alg.groebner) if isinstance(alg, QuotientAlgebra) else []
    Q = QuotientAlgebra(alg.ambient,
                        own + [Poly(alg.ambient, g.d) for g in gens])

    def pi(m):
        r = Q.reduce_term(m)
        return {m: 1} if r is None else r

    return Q, pi, gens


def _evaluation_quotient(shell, coords, n):
    """Divide a free finite algebra by the kernel of an algebra map out
    of it, read off its images by a staircase walk (FGLM: Faugere,
    Gianni, Lazard & Mora, J. Symb. Comput. 16, 1993; Marinari, Moeller
    & Mora, 1993).  ``coords(m)`` gives the image of the key m as a list
    of n coordinates.

    The keys go in int order, skipping any that a leading key found so
    far divides (the kernel is an ideal, so such a key is a leading key
    of it too).  Each other key m reduces 0 | coords(m) once in one
    Subspace whose low block indexes the staircase s_0, s_1, ... found
    so far; the staircase is no longer than the shell or the rank of the
    images, so that block is min(shell.dim, n) wide.  If the high part
    survives, m is the next staircase monomial
    s_j and the reduced row, with e_j set, is inserted; otherwise the
    residue is res | 0, and m + sum res_j s_j is the next element of the
    reduced Groebner basis.

    Returns the QuotientAlgebra, whose ``basis_monomials()`` is that
    staircase, and the Subspace of the rows e_j | coords(s_j), in which
    the residue of 0 | v is -c | 0 exactly when v = sum c_j coords(s_j).
    """
    guard = shell._lay.guard
    w = min(shell.dim, n)
    S = Subspace(shell.field, w + n)
    stair, leads, basis = [], [], []
    for m in shell.monomials():
        if any(_divides(t, m, guard) for t in leads):
            continue
        res = S.residue([0] * w + coords(m))
        if any(res[w:]):
            res[len(stair)] = 1
            S.insert(res)
            stair.append(m)
        else:
            row = {s: c for s, c in zip(stair, res) if c}
            row[m] = 1
            basis.append(Poly(shell, row))
            leads.append(m)
    return QuotientAlgebra(shell, basis), S


def apply_map(f, images, target, coeff_map=None, allow_missing=()):
    """Apply the algebra map determined by ``images`` (a dict by name).

    Variables absent from ``images`` are sent to the same-named variable
    of the target; a variable named in ``allow_missing`` is dropped, and
    BadParams is raised only if f has a nonzero exponent on it.
    ``coeff_map`` twists coefficients (a code -> code callable) before
    they are re-interpreted in the target's field.

    Each monomial goes through ``_mono_images``, one memo per call.  With
    no images and a source on the target's variables, orders and kinds,
    the image of a monomial is its residue in the target: the keys are
    reduced (or, over the same factors, copied) with no product.
    """
    src = f.alg
    if (not images and not allow_missing and src.vars == target.vars
            and src.orders == target.orders and src.kinds == target.kinds):
        d = dict(_codes(f, target, coeff_map))
        if not _reduced_alike(src, target):
            d = target.reduce_dict(d)
        return Poly(target, d)
    return _sum_images(f, _mono_images(src, images, target, allow_missing),
                       target, coeff_map)


def _reduced_alike(src, target):
    """Whether every reduced monomial of src is reduced in target."""
    if src is target or target._plain:
        return True
    return (isinstance(target, TensorAlgebra)
            and isinstance(src, TensorAlgebra)
            and len(src.factors) == len(target.factors)
            and all(a is b for a, b in zip(src.factors, target.factors)))


def _codes(f, target, coeff_map):
    """The terms of f with nonzero codes of target's field, twisted by
    ``coeff_map``; a code outside that field raises BadParams."""
    q = target.field.q
    for m, c in f.d.items():
        if coeff_map is not None:
            c = coeff_map(c)
        if not 0 <= c < q:
            raise BadParams(f"scalar code {c} outside field {target.field.name}")
        if c:
            yield m, c


def _mono_images(src, images, target, allow_missing=()):
    """The algebra map of ``apply_map`` on monomials, memoised: a function
    sending a key of ``src`` to its image in target, as a dict over
    reduced keys that must never be mutated.

    The image of m is the image of m with its last nonzero exponent e
    cleared, times img_k ** e; each such power is built once, by at most
    one product from the lower ones (``_power``), so a new monomial costs
    at most two products and none is repeated.  The last nonzero exponent
    is the field of the top bit in which m differs from the zero key.  A
    lookup walks down those prefixes to the longest one in the memo and
    multiplies back up in a loop, so the function never calls itself and
    forms no reference cycle.

    ``image.rebind(k, img)`` sends variable k to img from then on (None
    drops it, as ``allow_missing`` does).  Only the monomials whose last
    nonzero exponent is at k or later read img_k, so only they leave the
    memo: a search that binds variables in order keeps every image of
    the earlier ones.
    """
    imgs = []
    for nm in src.vars:
        if nm in images:
            imgs.append(images[nm])
        elif nm in allow_missing:
            imgs.append(None)
        else:
            imgs.append(target.var(nm))
    lay = src._lay
    zero, var_at, offs, masks, zeros = (lay.zero, lay.var_at, lay.offs,
                                        lay.masks, lay.zeros)
    # clearing field k and every field above it: keep the bits below it
    # and take the zero key's above
    lows = [(1 << off) - 1 for off in offs]
    highs = [zero & ~low for low in lows]
    one = {target._zero_mono: 1}
    memo = {zero: one}
    powers = [{} for _ in imgs]
    # layers[k]: the monomials in memo whose last nonzero exponent is at k
    layers = [[] for _ in imgs]

    def image(m):
        hit = memo.get(m)
        if hit is not None:
            return hit
        # (monomial, its last nonzero slot) down to a memoised prefix; the
        # zero monomial is always memoised
        chain = []
        while hit is None:
            k = var_at[(m ^ zero).bit_length() - 1]
            chain.append((m, k))
            m = (m & lows[k]) | highs[k]
            hit = memo.get(m)
        for m, k in reversed(chain):
            e = ((m >> offs[k]) & masks[k]) - zeros[k]
            pw = powers[k].get(e)
            if pw is None:
                img = imgs[k]
                if img is None:
                    raise BadParams("nonzero exponent on a dropped variable")
                if img.alg is not target:
                    raise BadParams("operands live in different algebras")
                if not powers[k]:
                    # a power e > 1 comes out of products, hence reduced
                    powers[k][1] = target.reduce_dict(img.d)
                pw = _power(powers[k], e, target)
            hit = memo[m] = pw if hit is one else target.mul_dicts(hit, pw)
            layers[k].append(m)
        return hit

    def rebind(k, img):
        imgs[k] = img
        powers[k].clear()
        for layer in layers[k:]:
            for m in layer:
                del memo[m]
            layer.clear()

    image.rebind = rebind
    return image


def _power(powers, e, target):
    """x^e as a dict, from and into ``powers``, a memo {exponent: dict}
    of the powers of an element x of target that holds x^1, and may hold
    x^-1, such as one variable's image in ``_mono_images``.  x^0 is 1.
    x^e is (x^(e//p))^p * x^(e%p), the p-th power being termwise in
    characteristic p, coefficients included, and x^(e-1) * x below p;
    for e < 0 the same in x^-1.  So each exponent costs at most one
    product and is built once.  The recursion is at most log_p|e| + p
    deep."""
    pw = powers.get(e)
    if pw is not None:
        return pw
    if e == 0:
        pw = target.one().d
    elif e == -1:
        pw = invert_unit(Poly(target, powers[1])).d
    else:
        p = target.field.p
        s, a = (1, e) if e > 0 else (-1, -e)
        if a < p:
            pw = target.mul_dicts(_power(powers, e - s, target),
                                  _power(powers, s, target))
        else:
            pw = Poly(target, _power(powers, s * (a // p), target)
                      )._frobenius_power().d
            if a % p:
                pw = target.mul_dicts(pw, _power(powers, s * (a % p), target))
    powers[e] = pw
    return pw


def _sum_images(f, image, target, coeff_map=None):
    """Sum c * image(m) over the terms c * m of f, in one dict."""
    return Poly(target, _sum_terms(_codes(f, target, coeff_map), image,
                                   target.field))


def _sum_terms(terms, image, F):
    """Sum c * image(m) over the pairs (m, c), as a new dict; with
    ``image`` None, sum c * m, a zero code adding nothing."""
    out = {}
    if F.q == 2:
        # every nonzero code is 1: toggle the key (see the module
        # docstring)
        if image is None:
            for m, c in terms:
                if c:
                    if m in out:
                        del out[m]
                    else:
                        out[m] = 1
            return out
        for m, _ in terms:
            for m2 in image(m):
                if m2 in out:
                    del out[m2]
                else:
                    out[m2] = 1
        return out
    add, mul = F.add, F.mul
    if image is None:
        for m, c in terms:
            if c:
                s = add(out.get(m, 0), c)
                if s:
                    out[m] = s
                else:
                    del out[m]
        return out
    for m, c in terms:
        for m2, c2 in image(m).items():
            s = add(out.get(m2, 0), c2 if c == 1 else mul(c, c2))
            if s:
                out[m2] = s
            else:
                del out[m2]
    return out


def _leg_groups(f, span, fn, F):
    """Group the terms c * m of a tensor element by the legs around the
    bit ``span``; yields each group's key, m with that leg's bits clear,
    and its sum of c * fn(leg in span), which is fn's own dict for a lone
    term with c = 1."""
    a, b = span
    mask = (1 << (b - a)) - 1
    groups = {}
    for m, c in f.d.items():
        leg = (m >> a) & mask
        groups.setdefault(m ^ (leg << a), []).append((leg, c))
    for rest, legs in groups.items():
        if len(legs) == 1 and legs[0][1] == 1:
            yield rest, fn(legs[0][0])
        else:
            yield rest, _sum_terms(legs, fn, F)


def map_leg(f, slot, fn, target):
    """Substitute into legs of a tensor element: each term c * m of f
    becomes c * (legs before) fn(leg ``slot`` of m) (legs after).

    ``fn`` maps a reduced key of factor ``slot`` to a dict over reduced
    keys of the factors that replace that leg in ``target``, as one key
    of their own tensor product (no factors: ``_scalar_leg``); usually a
    memoised algebra map, such as ``HopfAlgebra.delta_mono``.  A tensor
    reduces factor by factor, so every joined key is already reduced in
    ``target``: nothing is multiplied or reduced here.  The legs that
    stay move as bit runs to their place in ``target``.

    ``slot`` may also be a tuple of slots, each substituted by ``fn``,
    such as (f ox f) with ``slot=(0, 1)``: (f ox f)(sum c a ox b) is
    sum f(a) ox (sum c f(b)).  The terms are grouped by every leg but the
    last slot, whose images are summed per group; the group's key then
    takes the images of its other slots.
    """
    slots = (slot,) if isinstance(slot, int) else tuple(sorted(slot))
    spans = f.alg._spans
    runs, at = f.alg._leg_plan(slots, target._lay.width)
    add, mul = target.field.add, target.field.mul
    gf2 = target.field.q == 2
    out = {}
    for rest, acc in _leg_groups(f, spans[slots[-1]], fn, target.field):
        base = 0
        for a, mask, p in runs:
            base |= ((rest >> a) & mask) << p
        # the group's own slots
        heads = [(base, 1)]
        for s in slots[-2::-1]:
            x, y = spans[s]
            img = fn((rest >> x) & ((1 << (y - x)) - 1)).items()
            p = at[s]
            heads = [(h | (sub << p), c2 if c == 1 else mul(c, c2))
                     for h, c in heads for sub, c2 in img]
        # two groups meet only through those images
        p = at[slots[-1]]
        if gf2:
            # every code is 1: toggle the key (see the module docstring)
            for h, _ in heads:
                for sub in acc:
                    key = h | (sub << p)
                    if key in out:
                        del out[key]
                    else:
                        out[key] = 1
            continue
        for h, hc in heads:
            for sub, c in acc.items():
                key = h | (sub << p)
                v = add(out.get(key, 0), c if hc == 1 else mul(hc, c))
                if v:
                    out[key] = v
                else:
                    del out[key]
    return Poly(target, out)


def multiply_legs(f, fns, target):
    """The product of leg images: each term c * m of a tensor element f
    becomes c * fns[0](leg 0 of m) * fns[1](leg 1 of m) * ... in target,
    such as mu (S ox id) delta(x) with ``fns = (S, id)``.  Each fns[i] is
    an algebra map on reduced keys of factor i, as for ``map_leg`` but
    into target: a ``_mono_images`` memo, or an identity or embedding
    such as ``lambda m: {m: 1}``.  Terms are grouped by every leg but the
    last, whose images are summed per group, so a group costs one product
    per other leg that is not 1.
    """
    spans = f.alg._spans
    if len(fns) != len(spans):
        raise BadParams(f"expected {len(spans)} leg maps, got {len(fns)}")
    legs = [(fn, a, (1 << (b - a)) - 1, fac._zero_mono)
            for fn, (a, b), fac in zip(fns, spans, f.alg.factors)][:-1]

    def product(group):
        rest, acc = group
        for fn, a, mask, one in legs:
            leg = (rest >> a) & mask
            if acc and leg != one:
                acc = target.mul_dicts(acc, fn(leg))
        return acc

    groups = _leg_groups(f, spans[-1], fns[-1], target.field)
    return Poly(target, _sum_terms(((g, 1) for g in groups), product,
                                   target.field))


def invert_unit(f):
    """Inverse of a unit, found by geometric series against the local part.

    Strategy: evaluating every nil variable at 0 and every unit-kind
    variable at 1 is a ring map onto Laurent monomials; a unit must land
    on a single monomial c*X^a there.  Dividing by that monomial leaves
    1 + n with n topologically nilpotent, and the series sum (-n)^k
    terminates exactly.
    """
    alg = f.alg
    F = alg.field
    lay = alg._lay
    # the unit exponents go to 0, the laurent ones stay
    lam = _sum_terms(((m & lay.laurent_bits, c) for m, c in f.d.items()
                      if not m & lay.nil_bits), None, F)
    if len(lam) != 1:
        raise NonUnit(f"local part has {len(lam)} monomials, need exactly 1")
    (key, c), = lam.items()
    inv_mono = alg._pack(tuple(-e for e in alg._exponents(key)))
    inv0 = Poly(alg, {inv_mono: F.inv(c)})
    n = f * inv0 - 1
    cap = 1 + sum(d - 1 for d, k in zip(alg.orders, alg.kinds) if k != "laurent")
    acc = alg.one()
    term = alg.one()
    for _ in range(cap + 1):
        term = -(term * n)
        if not term:
            return acc * inv0
        acc = acc + term
    raise NonUnit("geometric series did not terminate; element is not a unit")


def eliminate_linear(ambient, gens):
    """Rewrite a presentation by solving generators linear in a variable.

    Whenever some generator reads x*A + B with A a unit and neither A
    nor B involving x, the variable x is dropped and replaced by
    -B*A^(-1) everywhere, plus a truncation residual generator if the
    substitute does not satisfy x's own exponent rule for free.
    Returns (new ambient, new generators, aliases).
    """
    aliases = {}
    gens = list(gens)
    while True:
        hit = _find_linear(ambient, gens)
        if hit is None:
            return ambient, [g for g in gens if g], aliases
        gi, name, sub = hit
        xi = ambient.vars.index(name)
        keep = [i for i in range(len(ambient.vars)) if i != xi]
        small = Algebra(ambient.field,
                        [ambient.vars[i] for i in keep],
                        [ambient.orders[i] for i in keep],
                        [ambient.kinds[i] for i in keep],
                        allow_ticks=True)
        sub_small = apply_map(sub, {}, small, allow_missing=[name])
        new_gens = [apply_map(g, {name: sub_small}, small)
                    for j, g in enumerate(gens) if j != gi]
        d, kind = ambient.orders[xi], ambient.kinds[xi]
        resid = sub_small ** d
        if kind == "unit":
            resid = resid - 1
        if resid:
            new_gens.append(resid)
        for nm, expr in aliases.items():
            aliases[nm] = apply_map(expr, {name: sub_small}, small)
        aliases[name] = sub_small
        ambient, gens = small, [g for g in new_gens if g]


def _find_linear(ambient, gens):
    lay = ambient._lay
    for gi, g in enumerate(gens):
        for xi, name in enumerate(ambient.vars):
            if ambient.kinds[xi] == "laurent":
                continue
            off, mask = lay.offs[xi], lay.masks[xi]
            a_part = {}
            b_part = {}
            ok = True
            for m, c in g.d.items():
                e = (m >> off) & mask
                if e == 0:
                    b_part[m] = c
                elif e == 1:
                    a_part[m ^ (1 << off)] = c
                else:
                    ok = False
                    break
            if not ok or not a_part:
                continue
            A = Poly(ambient, a_part)
            B = Poly(ambient, b_part)
            try:
                inv = invert_unit(A)
            except NonUnit:
                continue
            return gi, name, -(B * inv)
    return None


# -- subalgebras and gradings ------------------------------------------------


def subalgebra_generated(alg, elems):
    """Echelon span of the unital subalgebra generated by ``elems``, in
    the coordinates of ``alg.to_vector``."""
    if alg.dim is None:
        raise BadParams("subalgebras need a finite algebra")
    S = Subspace(alg.field, alg.dim)
    one = alg.one()
    S.insert(alg.to_vector(one))
    queue = [one]
    while queue:
        f = queue.pop()
        for e in elems:
            w = f * e
            if w.d and S.insert(alg.to_vector(w)):
                queue.append(w)
    return S


def weight_decomposition(alg, weights, modulus):
    """Split the monomial basis by weight, checking the grading is real.

    ``weights`` assigns an integer weight to each variable name; the
    weight of a monomial is the weighted exponent sum mod ``modulus``.
    For a quotient algebra the ideal must be homogeneous, otherwise the
    classes of monomials are not graded and NotHomogeneous is raised.
    The check is on the reduced Groebner basis, the t - nf(t) over the
    leading monomials t: a graded ideal has a homogeneous one, and one
    that is homogeneous generates a graded ideal.
    """
    if alg.dim is None:
        raise BadParams("weight decomposition needs a finite algebra")
    wts = []
    for nm, d, k in zip(alg.vars, alg.orders, alg.kinds):
        w = weights[nm]
        if k == "unit" and (w * d) % modulus != 0:
            raise NotHomogeneous(
                f"unit variable {nm} of order {d} cannot carry weight {w} "
                f"mod {modulus}")
        wts.append(w)

    def wt(m):
        return sum(e * w for e, w in zip(alg._exponents(m), wts)) % modulus

    if isinstance(alg, QuotientAlgebra):
        for t, _ in alg._leads:
            nf = alg.reduce_term(t)
            for m in nf:
                if wt(m) != wt(t):
                    f = Poly(alg.ambient, {t: 1}) - Poly(alg.ambient, nf)
                    raise NotHomogeneous(
                        f"ideal element {f} has an inhomogeneous part of "
                        f"weight {wt(m)}")
    out = {}
    for m in alg.basis_monomials():
        out.setdefault(wt(m), []).append(m)
    return out
