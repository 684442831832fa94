"""Exact arithmetic in commutative coefficient rings.

Supported rings: the integers ``Z``, the rationals ``Q``, the modular rings
``Z/m`` (m >= 2), and monic polynomial quotients ``R[q]/(f)`` with R in
{Z, Q}.  Elements are kept canonical at all times (a rational is an ``int``
when integral and a reduced ``Fraction`` otherwise, residues in [0, m),
polynomial residues of degree < deg f), so equality is plain
representation equality.

The string grammar accepted by :func:`ring_from_string` is the one used by
the CLI and by algebra spec files::

    Z
    Q
    Z/7
    Z[q]/(1,1,1)        # coefficient list of the monic modulus, low to high
    Q[q]/(1,0,1)
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import cached_property

from .errors import StructuralError, UnsupportedRingError


def binomial(k: int, r: int) -> int:
    """Binomial coefficient C(k, r), zero when r > k or r < 0."""
    if r < 0 or r > k:
        return 0
    return math.comb(k, r)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class RingElement:
    """A canonical element of a :class:`Ring`, with overloaded arithmetic."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: "Ring", value):
        self.ring = ring
        self.value = value

    def _coerce(self, other) -> "RingElement":
        if isinstance(other, RingElement):
            if other.ring is not self.ring and other.ring != self.ring:
                raise StructuralError(
                    f"mixed-ring operands: {self.ring} vs {other.ring}")
            return other
        if isinstance(other, int):
            return self.ring.embed(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._add(self.value, other.value))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(
            self.ring, self.ring._add(self.value, self.ring._neg(other.value)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._mul(self.value, other.value))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.ring, self.ring._neg(self.value))

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.ring.one
        for _ in range(k):
            out = out * self
        return out

    def inverse(self) -> "RingElement":
        return RingElement(self.ring, self.ring._inv(self.value))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.embed(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring == other.ring and self.value == other.value

    def __hash__(self):
        return hash((self.ring, self.value))

    def __bool__(self):
        return self.value != self.ring._zero

    def is_zero(self) -> bool:
        return not self

    def __repr__(self):
        return f"<{self.ring.format_value(self.value)} in {self.ring}>"

    def __str__(self):
        return self.ring.format_value(self.value)


class Ring:
    """Base class for coefficient rings.  Subclasses implement raw ops on
    canonical values; users go through :class:`RingElement`."""

    is_field = False

    def element(self, value) -> RingElement:
        raw = self._value(value)
        return value if isinstance(value, RingElement) else RingElement(self, raw)

    def embed(self, n: int) -> RingElement:
        """Image of the integer n under the unique ring map Z -> R."""
        return RingElement(self, self._embed_int(n))

    @cached_property
    def zero(self) -> RingElement:
        return RingElement(self, self._zero)

    @cached_property
    def one(self) -> RingElement:
        return RingElement(self, self._one)

    # raw-value interface -------------------------------------------------
    @cached_property
    def _zero(self):
        """The canonical raw zero, against which raw values are tested."""
        return self._embed_int(0)

    @cached_property
    def _one(self):
        """The canonical raw one."""
        return self._embed_int(1)

    def _value(self, value):
        """The canonical raw value of a RingElement of this ring, an int or
        a raw value; an element of another ring is rejected."""
        if isinstance(value, RingElement):
            if value.ring is not self and value.ring != self:
                raise StructuralError(f"element of {value.ring}, expected {self}")
            return value.value
        if isinstance(value, int):
            return self._embed_int(value)
        return self._canon(value)

    def _canon(self, value):
        raise NotImplementedError

    def _embed_int(self, n: int):
        raise NotImplementedError

    def _add(self, a, b):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _inv(self, a):
        raise UnsupportedRingError(f"{self} is not a field; no inverses")

    def _dot(self, a, b):
        """sum_i a_i * b_i over two equally long iterables of raw values.

        This generic fold skips terms with a zero factor; ``Z`` and
        ``Z/m`` override it with a C-level sum of products, ``R[q]/(f)``
        with one unreduced convolution reduced once.
        """
        add, mul, zero = self._add, self._mul, self._zero
        acc = zero
        for x, y in zip(a, b):
            if x != zero and y != zero:
                acc = add(acc, mul(x, y))
        return acc

    # serialization -------------------------------------------------------
    def format_value(self, value) -> str:
        raise NotImplementedError

    def parse_value(self, text: str) -> RingElement:
        """The element written ``text``, boxed from :meth:`_parse`."""
        return RingElement(self, self._parse(text))

    def _parse(self, text: str):
        """The canonical raw value written ``text``."""
        raise NotImplementedError


class IntegerRing(Ring):
    def _canon(self, value):
        if not isinstance(value, int):
            raise StructuralError(f"not an integer: {value!r}")
        return value

    def _embed_int(self, n):
        return n

    _add = staticmethod(operator.add)
    _mul = staticmethod(operator.mul)
    _neg = staticmethod(operator.neg)

    @staticmethod
    def _dot(a, b):
        return sum(map(operator.mul, a, b))

    def format_value(self, value):
        return str(value)

    def _parse(self, text):
        return int(text)

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash(IntegerRing)

    def __repr__(self):
        return "Z"


def _rational(x):
    """The int or Fraction x as a canonical raw value of ``Q``."""
    return x if x.__class__ is int or x.denominator != 1 else x.numerator


class RationalRing(Ring):
    """The rationals.  A raw value is an ``int`` when it is integral and a
    reduced ``Fraction`` with denominator > 1 otherwise, so integer-valued
    work runs on native ints; both compare, hash and print alike."""

    is_field = True

    def _canon(self, value):
        return _rational(Fraction(value))

    def _embed_int(self, n):
        return n

    # _rational inlined: these two run in every sum and product over Q
    @staticmethod
    def _add(a, b):
        c = a + b
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    @staticmethod
    def _mul(a, b):
        c = a * b
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    _neg = staticmethod(operator.neg)

    def _inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _rational(Fraction(1, a))

    def format_value(self, value):
        return str(value)

    def _parse(self, text):
        return self._canon(text)

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash(RationalRing)

    def __repr__(self):
        return "Q"


class ModRing(Ring):
    """Integers modulo m, residues canonical in [0, m)."""

    def __init__(self, m: int):
        if m < 2:
            raise StructuralError("modulus must be >= 2")
        self.m = m
        self.is_field = is_prime(m)

    def _canon(self, value):
        if not isinstance(value, int):
            raise StructuralError(f"not an integer: {value!r}")
        return value % self.m

    def _embed_int(self, n):
        return n % self.m

    def _add(self, a, b):
        return (a + b) % self.m

    def _mul(self, a, b):
        return (a * b) % self.m

    def _neg(self, a):
        return (-a) % self.m

    def _dot(self, a, b):
        return sum(map(operator.mul, a, b)) % self.m

    def _inv(self, a):
        if not self.is_field:
            raise UnsupportedRingError(f"{self} is not a field")
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.m)

    def format_value(self, value):
        return str(value)

    def _parse(self, text):
        return int(text) % self.m

    def __eq__(self, other):
        return isinstance(other, ModRing) and other.m == self.m

    def __hash__(self):
        return hash((ModRing, self.m))

    def __repr__(self):
        return f"Z/{self.m}"


class PolyQuotientRing(Ring):
    """R[q]/(f) for R in {Z, Q} and monic f, residues of degree < e = deg f.

    Values are fixed-length tuples of base-ring raw values, low degree
    first.  A product, or a sum of products (:meth:`_dot`), is one
    unreduced convolution of 2e - 1 entries summed in plain ``int`` and
    ``Fraction`` arithmetic, reduced mod f once and made canonical once
    (:meth:`_reduce`); sums and negations map the base operation over the
    entries.  Irreducibility over Q is caller-asserted via ``irreducible``
    (:func:`ring_from_string` decides it where that is cheap); the ring is
    a field exactly when the base is Q and that flag is set.
    """

    def __init__(self, base: Ring, modulus, irreducible: bool = False):
        if not isinstance(base, (IntegerRing, RationalRing)):
            raise StructuralError("quotient base must be Z or Q")
        mod = tuple(base._value(c) for c in modulus)
        while len(mod) > 0 and mod[-1] == base._zero:
            mod = mod[:-1]
        if len(mod) < 2:
            raise StructuralError("modulus must have degree >= 1")
        if mod[-1] != base.one.value:
            raise StructuralError("modulus must be monic")
        self.base = base
        self.modulus = mod
        self.degree = len(mod) - 1
        # q^e = sum_i tail[i] q^i mod f
        self._tail = tuple(-c for c in mod[:-1])
        self._over_q = isinstance(base, RationalRing)
        self._constant = (0,) * (self.degree - 1)  # the tail of a constant
        self.irreducible = irreducible
        self.is_field = irreducible and isinstance(base, RationalRing)

    def _reduce(self, coeffs: list):
        """The canonical residue mod f of the polynomial ``coeffs`` (a list
        of ints and Fractions, low degree first, reduced in place): one long
        division by the monic f, then ``_rational`` on each entry over Q."""
        e, tail = self.degree, self._tail
        for k in range(len(coeffs) - 1, e - 1, -1):
            c = coeffs[k]
            if c:
                for i, t in enumerate(tail, k - e):
                    coeffs[i] += c * t
        if len(coeffs) < e:
            coeffs += [0] * (e - len(coeffs))
        if self._over_q:
            return tuple(map(_rational, coeffs[:e]))
        return tuple(coeffs[:e])

    def _shifts(self, flat: list):
        """The e lists of the entries of q^s v mod f, s < e, for ``flat``
        the entries of raw values v laid end to end: the columns of v as the
        R-linear map on R^e that multiplying by v is.  Ints stay ints under
        an integer f; under the others entries are made canonical."""
        e, tail, out = self.degree, self._tail, [flat]
        canon = any(t.__class__ is not int for t in tail)
        for _ in range(1, e):  # q v = (0, v_0, ..., v_(e-2)) + v_(e-1) q^e
            tops, shifted = flat[e - 1::e], [0] * len(flat)
            for i, t in enumerate(tail):
                low = flat[i - 1::e] if i else [0] * len(tops)
                shifted[i::e] = [a + c * t for a, c in zip(low, tops)] if t else low
            flat = list(map(_rational, shifted)) if canon else shifted
            out.append(flat)
        return out

    def _canon(self, value):
        return self._reduce([self.base._value(c) for c in value])

    def _embed_int(self, n):
        return self._reduce([n])

    def _add(self, a, b):
        return tuple(map(self.base._add, a, b))

    def _neg(self, a):
        return tuple(map(self.base._neg, a))

    def _mul(self, a, b):
        # the one-pair case of _dot, inlined: it runs in every product.  A
        # constant factor, as every structure constant of the zoo is,
        # leaves the degree below e: nothing to reduce
        if a[1:] == self._constant:
            a, b = b, a
        if b[1:] == self._constant:
            c = b[0]
            if self._over_q:
                return tuple([_rational(c * x) for x in a])
            return tuple([c * x for x in a])
        out = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return self._reduce(out)

    def _dot(self, a, b):
        """sum_i a_i * b_i, its convolutions summed unreduced, then reduced
        mod f once."""
        out = [0] * (2 * self.degree - 1)
        for u, v in zip(a, b):
            for i, x in enumerate(u):
                if x:
                    for j, y in enumerate(v, i):
                        out[j] += x * y
        return self._reduce(out)

    def _inv(self, a):
        if not self.is_field:
            raise UnsupportedRingError(f"{self} is not (declared) a field")
        if all(c == 0 for c in a):
            raise ZeroDivisionError("inverse of zero")
        # extended Euclid in Q[q] against the modulus
        r0, s0 = list(self.modulus), [Fraction(0)]
        r1, s1 = [Fraction(c) for c in a], [Fraction(1)]
        while any(c != 0 for c in r1):
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # r0 is the gcd; a unit since the modulus is irreducible
        lead = r0[_poly_deg(r0)]
        return self._canon([c / lead for c in s0])

    def format_value(self, value):
        return "(" + ",".join(self.base.format_value(c) for c in value) + ")"

    def _parse(self, text):
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise StructuralError(f"bad quotient-ring value: {text!r}")
        return self._reduce([self.base._parse(p) for p in text[1:-1].split(",")])

    def __eq__(self, other):
        return (isinstance(other, PolyQuotientRing)
                and other.base == self.base and other.modulus == self.modulus)

    def __hash__(self):
        return hash((PolyQuotientRing, self.base, self.modulus))

    def __repr__(self):
        coeffs = ",".join(self.base.format_value(c) for c in self.modulus)
        return f"{self.base}[q]/({coeffs})"


def _poly_deg(p):
    for i in range(len(p) - 1, -1, -1):
        if p[i] != 0:
            return i
    return -1


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divmod(a, b):
    a = [Fraction(c) for c in a]
    db = _poly_deg(b)
    q = [Fraction(0)] * max(len(a) - db, 1)
    while _poly_deg(a) >= db:
        da = _poly_deg(a)
        c = a[da] / b[db]
        q[da - db] = c
        for i in range(db + 1):
            a[da - db + i] -= c * b[i]
    return q, a


ZZ = IntegerRing()
QQ = RationalRing()


def cyclotomic_ring(p: int) -> PolyQuotientRing:
    """Z[q]/(1 + q + ... + q^(p-1)) for prime p."""
    if not is_prime(p):
        raise UnsupportedRingError(f"{p} is not prime")
    return PolyQuotientRing(ZZ, [1] * p)


# the largest constant term whose divisors the rational-root test tries
ROOT_TEST_BOUND = 10 ** 10


def irreducible_over_q(modulus):
    """Whether the monic f = ``modulus`` over Q (low degree first) is
    irreducible, where that is cheap to decide; else None.

    A linear f is irreducible, and f of degree 2 or 3 exactly when it has
    no rational root.  Those are integers dividing h(0) for the monic
    integer h(t) = D^n f(t/D), D the lcm of the denominators; degrees
    above 3 and |h(0)| > ``ROOT_TEST_BOUND`` stay undecided.
    """
    n = len(modulus) - 1
    if n == 1:
        return True
    if n > 3:
        return None
    scale = math.lcm(*(Fraction(c).denominator for c in modulus))
    h = [int(c * scale ** (n - i)) for i, c in enumerate(modulus)]
    if abs(h[0]) > ROOT_TEST_BOUND:
        return None
    candidates = {0} if h[0] == 0 else {
        r for d in range(1, math.isqrt(abs(h[0])) + 1) if h[0] % d == 0
        for r in (d, -d, h[0] // d, -h[0] // d)}
    return not any(sum(c * r ** i for i, c in enumerate(h)) == 0
                   for r in candidates)


_RING_RE = re.compile(r"^(Z|Q)\[q\]/\(([^)]*)\)$")


def ring_from_string(text: str) -> Ring:
    """The ring named by ``text``.  ``Q[q]/(f)`` is declared a field when
    :func:`irreducible_over_q` decides that f is irreducible."""
    text = text.strip()
    if text == "Z":
        return ZZ
    if text == "Q":
        return QQ
    try:
        if text.startswith("Z/"):
            return ModRing(int(text[2:]))
        m = _RING_RE.match(text)
        if m:
            base = ZZ if m.group(1) == "Z" else QQ
            coeffs = [base._parse(c) for c in m.group(2).split(",")]
            ring = PolyQuotientRing(base, coeffs)
            if base is QQ and irreducible_over_q(ring.modulus):
                ring.irreducible = ring.is_field = True
            return ring
    except (ValueError, ZeroDivisionError) as exc:
        raise StructuralError(f"unrecognized ring: {text!r} ({exc})") from exc
    raise StructuralError(f"unrecognized ring: {text!r}")
