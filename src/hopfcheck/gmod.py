"""Graded free modules with a finite named basis per degree.

Elements of the module and of its tensor square are sparse coefficient
dicts (label -> value, resp. (label, label) -> value) holding the ring's
canonical raw values, with no stored zeros.  A value is boxed into a
``RingElement`` only at the boundary: by :meth:`_Sparse.coeff` and, through
``Ring.format_value``, by ``repr``.  Linear maps are stored by their images
on basis labels and support composition, powers and sums; a pair of maps
acts on the tensor square through :meth:`GradedMap.apply_tensor`, without
building the tensor-product map, and :func:`tensor_sum_vanishes` decides
whether a sum of such pairs is the zero operator.

Coefficient arithmetic on these dicts runs through one accumulator,
:func:`_accumulate`, but in the structure-constant loops of ``hopf.py``,
which sum table rows on label indices, and in the packed step of a dense
degree block.  A
map keeps one :class:`DegreeBlock` per degree (:meth:`GradedMap.block`),
and every application of the map to a degree's vectors goes through it:
:meth:`GradedMap.compose` over the other map's images as one batch,
:meth:`GradedMap.__call__` as a batch of one, and each level of the
nilpotency chains, which a block steps for all its labels at once.  On a
block a quarter nonzero (:func:`_packs`) a batch is one
:meth:`DegreeBlock._step` through one Kronecker codec,
:func:`_kronecker`, that packs the block's columns into integers, a
block over ``R[q]/(f)`` as the R-linear map it is on R^(ne); on the
others every image, of ``compose``, ``__call__`` or a chain step, is
summed by :func:`_accumulate` over the columns its vector touches.
Either way a batch maps each distinct vector once, and the positions
that repeat it share its image.  Exact linear algebra runs through one
elimination, :func:`_eliminate`, with row steps chosen once per ring: it
picks the vectors of a chain level that span it and finds the kernels
of :func:`kernel_vectors`, one group of columns that share row keys at
a time.
"""

from __future__ import annotations

import math
import struct
import sys
from fractions import Fraction
from itertools import chain, compress, islice
from operator import attrgetter, mul

from .errors import StructuralError, UnsupportedRingError
from .rings import (ZZ, IntegerRing, ModRing, PolyQuotientRing, RationalRing,
                    Ring, RingElement, _rational)

_WORDS = {struct.calcsize(code): code for code in "BHIQ"}  # unsigned, by size
_DENOMINATOR = attrgetter("denominator")


class GradedBasis:
    """Ordered basis labels per degree, up to a truncation degree."""

    def __init__(self, degrees):
        self.degrees = tuple(tuple(labels) for labels in degrees)
        self.max_degree = len(self.degrees) - 1
        self._degree_of = {}
        for d, labels in enumerate(self.degrees):
            for label in labels:
                if label in self._degree_of:
                    raise StructuralError(f"duplicate basis label {label!r}")
                self._degree_of[label] = d
        self.labels = tuple(self._degree_of)
        self._label_sets = tuple(map(frozenset, self.degrees))

    def degree_of(self, label: str) -> int:
        try:
            return self._degree_of[label]
        except KeyError:
            raise StructuralError(f"unknown basis label {label!r}") from None

    def labels_of_degree(self, d: int):
        if d < 0 or d > self.max_degree:
            return ()
        return self.degrees[d]

    def labels_up_to(self, d: int):
        return self.labels_between(0, d)

    def labels_between(self, lo: int, hi: int):
        """Labels of degrees lo..hi, in basis order."""
        out = []
        for i in range(max(lo, 0), min(hi, self.max_degree) + 1):
            out.extend(self.degrees[i])
        return tuple(out)

    def rank(self, d: int) -> int:
        return len(self.labels_of_degree(d))

    def __contains__(self, label):
        return label in self._degree_of

    def __eq__(self, other):
        return isinstance(other, GradedBasis) and other.degrees == self.degrees

    def __hash__(self):
        return hash(self.degrees)

    def __repr__(self):
        ranks = ",".join(str(len(ls)) for ls in self.degrees)
        return f"GradedBasis(ranks=[{ranks}])"


def _same_module(a, b) -> bool:
    """Whether a and b (elements or maps) share their basis and ring."""
    return ((a.basis is b.basis or a.basis == b.basis)
            and (a.ring is b.ring or a.ring == b.ring))


def _check_ring(ring: Ring, *items):
    """Raise unless every item (a sparse element or None) is over ring."""
    for item in items:
        if item is not None and item.ring is not ring and item.ring != ring:
            raise StructuralError(f"mixed-ring operands: {item.ring} vs {ring}")


def _accumulate(ring: Ring, terms) -> dict:
    """The raw coefficients, with no zero, of the sum of c*x or of
    c*(x (x) y) over ``terms`` of (c, x, y): c a raw value, x and y sparse
    elements, y None for a plain multiple.  A tensor term's keys are the
    pairs (key of x, key of y).  The rings of x and y are checked per
    term, and a boxed c is ring-checked and unboxed; a caller taking a raw
    c from an element checks that element's ring.  This is the one
    accumulation routine, under :meth:`_Sparse.lincomb`."""
    mul, add, one = ring._mul, ring._add, ring._one
    acc = {}
    for c, x, y in terms:
        if isinstance(c, RingElement):
            c = ring._value(c)
        if x.ring is not ring or (y is not None and y.ring is not ring):
            _check_ring(ring, x, y)
        scaled = c != one  # a tuple one need not be the ring's own object
        for k, v in x.coeffs.items():
            if scaled:
                v = mul(c, v)
            if y is None:
                acc[k] = add(acc[k], v) if k in acc else v
                continue
            for k2, w in y.coeffs.items():
                key, t = (k, k2), mul(v, w)
                acc[key] = add(acc[key], t) if key in acc else t
    return _nonzero(ring, acc)


def _nonzero(ring: Ring, acc: dict) -> dict:
    """The nonzero entries of a raw-value dict; the dict itself if it has no zero."""
    z = ring._zero
    return {k: v for k, v in acc.items() if v != z} if z in acc.values() else acc


class _Sparse:
    """Shared arithmetic for Element and Tensor2Element.

    Every coefficient is a nonzero canonical raw value of ``ring``: the
    constructor canonicalizes, ring-checks and prunes what it is given,
    and :meth:`lincomb` produces only such values.
    """

    __slots__ = ("basis", "ring", "coeffs")

    def __init__(self, basis: GradedBasis, ring: Ring, coeffs: dict):
        self.basis = basis
        self.ring = ring
        value, zero = ring._value, ring._zero
        self.coeffs = {k: c for k, v in coeffs.items()
                       if (c := value(v)) != zero}

    @classmethod
    def _of(cls, basis: GradedBasis, ring: Ring, coeffs: dict):
        """Wrap coefficients that already satisfy the class invariant."""
        self = object.__new__(cls)
        self.basis, self.ring, self.coeffs = basis, ring, coeffs
        return self

    @classmethod
    def lincomb(cls, basis: GradedBasis, ring: Ring, terms):
        """The sum of c*x, or of c*(x (x) y), over ``terms`` of (c, x, y),
        with raw (or same-ring boxed) coefficients c, summed by
        :func:`_accumulate`."""
        return cls._of(basis, ring, _accumulate(ring, terms))

    def _check(self, other):
        if not _same_module(self, other):
            raise StructuralError("operands from different modules")
        if type(self) is not type(other):
            raise StructuralError("mixing module and tensor-square elements")

    def __add__(self, other):
        self._check(other)
        one = self.ring._one
        return self.lincomb(self.basis, self.ring,
                            ((one, self, None), (one, other, None)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.ring._neg
        return self._of(self.basis, self.ring,
                        {k: neg(v) for k, v in self.coeffs.items()})

    def scale(self, c):
        return self.lincomb(self.basis, self.ring,
                            ((self.ring._value(c), self, None),))

    def __rmul__(self, c):
        return self.scale(c)

    def coeff(self, key) -> RingElement:
        """The coefficient of ``key``, boxed."""
        return RingElement(self.ring, self.coeffs.get(key, self.ring._zero))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, _Sparse):
            return NotImplemented
        return (type(self) is type(other) and self.basis == other.basis
                and self.ring == other.ring and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((type(self), self.ring, frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        fmt = self.ring.format_value
        return " + ".join(f"{fmt(v)}*{k}" for k, v in sorted(
            self.coeffs.items(), key=lambda kv: str(kv[0])))


class Element(_Sparse):
    """Sparse module element: label -> coefficient."""

    @classmethod
    def zero(cls, basis, ring):
        return cls(basis, ring, {})

    @classmethod
    def basis_vector(cls, basis, ring, label):
        basis.degree_of(label)
        return cls._of(basis, ring, {label: ring._one})

    def degrees(self):
        return {self.basis.degree_of(l) for l in self.coeffs}

    def tensor(self, other: "Element") -> "Tensor2Element":
        self._check(other)
        return Tensor2Element.lincomb(self.basis, self.ring,
                                      ((self.ring._one, self, other),))


class Tensor2Element(_Sparse):
    """Sparse tensor-square element: (label, label) -> coefficient."""

    def bidegree_support(self):
        deg = self.basis.degree_of
        return {(deg(l1), deg(l2)) for (l1, l2) in self.coeffs}


class GradedMap:
    """A linear endomap given by its images on all basis labels; each image
    is homogeneous of its label's degree and over the map's ring.  No map
    is changed once built, so ``is_identity`` is decided then: the identity
    applies, composes and acts on tensors by returning the other operand."""

    __slots__ = ("basis", "ring", "images", "_blocks", "is_identity")

    def __init__(self, basis: GradedBasis, ring: Ring, images: dict):
        missing = [l for l in basis.labels if l not in images]
        if missing:
            raise StructuralError(f"map undefined on labels {missing[:3]}")
        self.basis = basis
        self.ring = ring
        self.images = images
        self._blocks = {}  # degree -> its DegreeBlock (:meth:`block`)
        for label, img in images.items():
            _check_ring(ring, img)
            bound = basis.degree_of(label)
            if not img.coeffs.keys() <= basis._label_sets[bound]:
                bad = max(d for d in img.degrees() if d != bound)
                raise StructuralError(
                    f"image of {label!r} has degree {bad}, "
                    f"violating the degree bound {bound}")
        self.is_identity = all(len(img.coeffs) == 1 and img.coeffs.get(l) == ring._one
                               for l, img in images.items())

    @classmethod
    def identity(cls, basis, ring):
        return cls(basis, ring,
                   {l: Element.basis_vector(basis, ring, l) for l in basis.labels})

    @classmethod
    def zero(cls, basis, ring):
        z = Element.zero(basis, ring)
        return cls(basis, ring, {l: z for l in basis.labels})

    def _check(self, other):
        if not _same_module(self, other):
            raise StructuralError("maps over different modules")

    def __call__(self, x: Element) -> Element:
        """self(x): x on the identity, else one batch of the :meth:`block`
        of x's degree if x is homogeneous and nonzero, or label by label."""
        if not _same_module(x, self):
            raise StructuralError("argument from a different module")
        if self.is_identity:
            return x
        basis = self.basis
        if x.coeffs:
            d = basis._degree_of[next(iter(x.coeffs))]
            if x.coeffs.keys() <= basis._label_sets[d]:
                return self.block(d).mapped([x])[0]
        return self._apply(x)

    def block(self, d: int) -> "DegreeBlock":
        """The :class:`DegreeBlock` of degree d, built on first use and
        kept, so every application of the map on that degree shares it."""
        block = self._blocks.get(d)
        if block is None:
            block = self._blocks[d] = DegreeBlock(self, d)
        return block

    def _apply(self, x: Element) -> Element:
        images = self.images
        return Element.lincomb(self.basis, self.ring,
                               ((c, images[l], None) for l, c in x.coeffs.items()))

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other, one batch of the other's images per degree
        (:meth:`DegreeBlock.mapped`); the other factor itself when one
        factor is the identity."""
        self._check(other)
        if self.is_identity:
            return other
        if other.is_identity:
            return self
        images = {}
        for d, labels in enumerate(self.basis.degrees):
            images.update(zip(labels, self.block(d).mapped(
                [other.images[l] for l in labels])))
        return GradedMap(self.basis, self.ring, images)

    def __add__(self, other, c=None):
        """self + other, or self + c * other for a raw value c."""
        self._check(other)
        basis, ring, one = self.basis, self.ring, self.ring._one
        return GradedMap(basis, ring, {l: Element.lincomb(basis, ring, (
            (one, self.images[l], None),
            (one if c is None else c, other.images[l], None)))
            for l in basis.labels})

    def __sub__(self, other):
        return self.__add__(other, self.ring._neg(self.ring._one))

    def scale(self, c) -> "GradedMap":
        c = self.ring._value(c)
        return GradedMap(self.basis, self.ring,
                         {l: img.scale(c) for l, img in self.images.items()})

    def power(self, k: int) -> "GradedMap":
        if k < 0:
            raise StructuralError("negative map power")
        if k == 0:
            return GradedMap.identity(self.basis, self.ring)
        out = self
        for _ in range(k - 1):
            out = self.compose(out)
        return out

    def apply_tensor(self, other: "GradedMap", t: Tensor2Element) -> Tensor2Element:
        """(self (x) other)(t), no tensor map built; t if both are the identity."""
        self._check(other)
        if not _same_module(t, self):
            raise StructuralError("argument from a different module")
        if self.is_identity and other.is_identity:
            return t
        return Tensor2Element.lincomb(
            self.basis, self.ring,
            ((c, self.images[l1], other.images[l2])
             for (l1, l2), c in t.coeffs.items()))

    def __eq__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        return (self.basis == other.basis and self.ring == other.ring
                and self.images == other.images)

    def __hash__(self):
        raise TypeError("GradedMap is not hashable")


def tensor_sum_vanishes(basis: GradedBasis, ring: Ring, terms) -> bool:
    """Whether the operator T = sum_i c_i (A_i (x) B_i) on the tensor
    square is zero, for ``terms`` of (c_i, A_i, B_i): c_i a raw value of
    ``ring``, A_i and B_i maps over ``basis`` and ``ring``.

    The coefficient of a (x) b in T(x (x) y) is sum_i c_i A_i(x)[a]
    B_i(y)[b], the ``Ring._dot`` of the row (c_i A_i(x)[a])_i and the
    column (B_i(y)[b])_i, and the a (x) b form a basis of the free module
    D (x) D, so T = 0 exactly when every row dots every column to zero.
    Each distinct row and column is collected once, from the keys (x, a)
    and (y, b) where some map is nonzero; the test is exact over every
    ring, zero divisors included, and no pair x (x) y is visited.
    """
    terms = list(terms)
    for _, A, B in terms:
        if not (_same_module(A, B) and A.basis == basis and A.ring == ring):
            raise StructuralError("maps over different modules")
    mul, zero, n = ring._mul, ring._zero, len(terms)
    rows, columns = set(), set()
    for x in basis.labels:
        row_of, column_of = {}, {}
        for i, (c, A, B) in enumerate(terms):
            for a, v in A.images[x].coeffs.items():
                row_of.setdefault(a, [zero] * n)[i] = mul(c, v)
            for b, v in B.images[x].coeffs.items():
                column_of.setdefault(b, [zero] * n)[i] = v
        rows.update(map(tuple, row_of.values()))
        columns.update(map(tuple, column_of.values()))
    dot = ring._dot
    return all(dot(row, column) == zero for row in rows for column in columns)


def _integer_scaling(ring: Ring, values):
    """(scale, raw, rows) for holding raw values of ``ring`` as raw values
    of the ring ``rows``, the ring that the rows of a matrix are over.

    Over ``Q``, ``rows`` is ``Z``, ``scale`` is the lcm of the denominators
    of ``values`` and raw(v) = v * scale, an ``int``: one common factor for
    the whole matrix, so its kernel and the span of its columns are
    unchanged.  Over ``Q[q]/(f)`` the scale is the lcm over every entry of
    the tuples, raw(v) the tuple v * scale and ``rows`` the ring itself.
    Elsewhere ``rows`` is ``ring``, ``scale`` is None and ``raw`` the
    identity.  :func:`_divided` undoes the scaling.
    """
    if isinstance(ring, RationalRing):
        scale = math.lcm(1, *map(_DENOMINATOR, values))
        return scale, lambda v: v.numerator * (scale // v.denominator), ZZ
    if isinstance(ring, PolyQuotientRing) and isinstance(ring.base, RationalRing):
        scale = math.lcm(1, *map(_DENOMINATOR, chain.from_iterable(values)))
        return scale, lambda v: tuple(c.numerator * (scale // c.denominator)
                                      for c in v), ring
    return None, lambda v: v, ring


def _divided(v, s: int):
    """The canonical raw value v / s of ``Q`` or ``Q[q]/(f)``, for v an
    entry scaled by :func:`_integer_scaling` and an int s > 0."""
    if v.__class__ is tuple:
        return tuple(_rational(Fraction(c, s)) for c in v)
    return _rational(Fraction(v, s))


def _flat(ring: Ring):
    """The function from raw values of ``ring`` to the integers that
    :func:`_kronecker` bounds: the values themselves, or the entries of
    the tuples of ``R[q]/(f)``."""
    if isinstance(ring, PolyQuotientRing):
        return chain.from_iterable
    return lambda values: values


def _truths(zero):
    """A function from a raw vector to a sequence that is true exactly at
    its nonzero entries: the vector itself, unless ``zero`` is true (the
    tuple zero of ``R[q]/(f)``)."""
    return (lambda v: map(zero.__ne__, v)) if zero else (lambda v: v)


def _dense(nonzeros: int, n: int) -> bool:
    """Whether an n x n block with ``nonzeros`` nonzero entries is dense."""
    return 4 * nonzeros >= n * n


def _packs(nonzeros: int, n: int) -> bool:
    """Whether a block runs through :func:`_kronecker`: a :func:`_dense`
    block of three labels or more.  On one or two labels the codec's fixed
    cost is several times that of the few products it would replace."""
    return n >= 3 and _dense(nonzeros, n)


def _kronecker(n: int, top: int, norm: int, ring: Ring):
    """The one Kronecker substitution codec (k, pack, unpack) on n e slots
    of k bytes, e = deg f on ``R[q]/(f)`` and 1 elsewhere, with
    8k - 1 >= bit_length(top * max(norm, 1)) (a machine word when one is
    wide enough), for integer entries |v| <= ``top`` and combinations of
    l1-norm <= ``norm``, so every digit is exact.  pack(values) is the
    sum of v_i 2**(8ki) over n e integers, unpack(x) the n e digits of a
    combination x of packed ints, reduced mod m on ``Z/m`` and regrouped
    into n e-tuples on ``R[q]/(f)``.  There a block packs as the R-linear
    map on R^(ne) that it is (``PolyQuotientRing._shifts``), so each
    digit is already reduced mod f.  Both bias each slot by 2**(8k - 1).
    """
    bits = (top * max(norm, 1)).bit_length() + 1
    k = next((w for w in sorted(_WORDS) if 8 * w >= bits), -(-bits // 8))
    e = ring.degree if isinstance(ring, PolyQuotientRing) else 0
    slots = n * (e or 1)
    half, order = 1 << (8 * k - 1), sys.byteorder
    bias = int.from_bytes(half.to_bytes(k, order) * slots, order)
    m = ring.m if isinstance(ring, ModRing) else None

    def pack(values):
        words = [v + half for v in values]
        return int.from_bytes(struct.pack(f"{slots}{_WORDS[k]}", *words) if k in _WORDS
                              else b"".join(w.to_bytes(k, order) for w in words),
                              order) - bias

    def unpack(x):
        data = (x + bias).to_bytes(slots * k, order)
        words = (memoryview(data).cast(_WORDS[k]) if k in _WORDS else
                 (int.from_bytes(data[i:i + k], order) for i in range(0, slots * k, k)))
        return [(d - half) % m for d in words] if m else [d - half for d in words]

    return k, pack, (lambda x: list(zip(*[iter(unpack(x))] * e))) if e else unpack


def _row_steps(ring: Ring):
    """The row steps ``(as_pivot, clear)`` of exact elimination on raw rows
    over ``ring``; None on composite ``Z/m``, ``Z[q]/(f)`` and ``Q[q]/(f)``
    not declared a field.

    ``as_pivot(v, support)`` picks a pivot column c among ``support``, the
    positions where v is nonzero and a pivot may be, and returns c and v
    made a pivot row.  ``clear(v, c, row, positions)`` is v less the
    multiple of that row, nonzero at ``positions``, that clears column c;
    v changes in place unless it is scaled.  Over ``Z``, which holds the
    rows of ``Q`` (:func:`_integer_scaling`), the steps are fraction-free
    (E. H. Bareiss, Math. Comp. 22, 1968): the pivot is an entry of least
    absolute value, a row is divided by its content with row[c] > 0, and v
    is scaled when row[c] does not divide v[c], then divided by its
    content.  Mod a prime p (on plain ints) and over any other field (in
    its raw operations) the pivot is the first nonzero entry, scaled to 1.
    """
    if isinstance(ring, IntegerRing):
        def as_pivot(v, support):
            c = min(support, key=lambda i: abs(v[i]))
            h = math.gcd(*v)
            if v[c] < 0:
                h = -h
            return c, [x // h for x in v] if h != 1 else v

        def clear(v, c, row, positions):
            a, b = row[c], v[c]
            h = math.gcd(a, b)
            a, b = a // h, b // h
            if a != 1:
                v = [a * x for x in v]
            for j in positions:
                v[j] -= b * row[j]
            if a != 1:
                h = math.gcd(*v)
                if h > 1:
                    v = [x // h for x in v]
            return v
    elif not ring.is_field:
        return None
    elif isinstance(ring, ModRing):
        p = ring.m

        def as_pivot(v, support):
            inv = pow(v[support[0]], -1, p)
            return support[0], [x * inv % p for x in v]

        def clear(v, c, row, positions):
            b = v[c]
            for j in positions:
                v[j] = (v[j] - b * row[j]) % p
            return v
    else:
        mul, add, neg = ring._mul, ring._add, ring._neg

        def as_pivot(v, support):
            inv = ring._inv(v[support[0]])
            return support[0], [mul(inv, x) for x in v]

        def clear(v, c, row, positions):
            b = neg(v[c])
            for j in positions:
                v[j] = add(v[j], mul(b, row[j]))
            return v
    return as_pivot, clear


def _eliminate(vectors, steps, zero, width):
    """The one exact elimination: each raw vector, in order, is reduced by
    the row steps ``steps`` of :func:`_row_steps` against the pivot rows
    made from the earlier independent vectors, with pivots among the first
    ``width`` entries; no vector may be shorter than one before it.  Yields
    None for a vector that becomes a pivot row, and the reduced vector for
    every other one: zero on its first ``width`` entries, its later entries
    the same combination of the inputs' later entries.
    """
    as_pivot, clear = steps
    nonzero = _truths(zero)
    pivots = []
    for v in vectors:
        v = list(v)  # reduced in place; the caller keeps its vectors
        for c, row, positions in pivots:
            if v[c] != zero:
                v = clear(v, c, row, positions)
        support = list(compress(range(width), nonzero(v)))
        if support:
            c, row = as_pivot(v, support)
            pivots.append((c, row, list(compress(range(len(row)),
                                                 nonzero(row)))))
            yield None
        else:
            yield v


class DegreeBlock:
    """The restriction of a map to one degree, as raw values for iterating it.

    ``columns[j]`` is the image of the j-th label of the degree, as an
    Element over ``ring``, the ring of the block's raw values: the image
    itself, but over ``Q`` and ``Q[q]/(f)``, where every entry is scaled
    to integers by the lcm ``scale`` of their denominators.  There the
    columns hold ``int``s over ``Z`` (integer tuples), and a chain runs on
    integer vectors z_k with g^k(x) = z_k / scale**k, boxed in canonical
    form.

    :meth:`_step` maps a batch of raw vectors, each distinct vector once,
    so positions of a batch may share an image.  A block that :func:`_packs`
    keeps its columns packed at the widest slot a batch has needed in
    ``packed``, as (bytes, codec, columns) with the codec of
    :func:`_kronecker` (else None); on ``R[q]/(f)``, e = deg f, column j
    is the e-tuple of the packed q^s g(x_j) mod f, s < e
    (``PolyQuotientRing._shifts``), expanded once and kept in ``shifted``;
    ``scale`` and ``top``, the largest absolute entry, are taken over all
    of these, so the scale also clears the denominators that reducing by
    an f with a non-integer coefficient brings in.  On the other blocks a step sums
    the columns that a vector touches by :func:`_accumulate`, as the
    map's label-by-label application does.

    :meth:`levels` steps every label's chain at once, level by level.
    Over ``Z`` and every field ``steps`` holds the row steps of the exact
    elimination :func:`_eliminate`, and :meth:`_independent` picks from a
    level vectors that span it; on every other ring ``steps`` is None.
    """

    __slots__ = ("map", "labels", "index", "ring", "columns", "packed",
                 "shifted", "flat", "top", "scale", "zero", "one", "nonzero",
                 "steps")

    def __init__(self, g: GradedMap, d: int):
        ring = g.ring
        self.map = g
        self.labels = labels = g.basis.labels_of_degree(d)
        self.index = {l: i for i, l in enumerate(labels)}
        columns = [g.images[l] for l in labels]
        packs = _packs(sum(len(x.coeffs) for x in columns), len(labels))
        values = chain.from_iterable(x.coeffs.values() for x in columns)
        shifted = None
        if packs and isinstance(ring, PolyQuotientRing):
            # each column expanded once, into the e lists of the entries of
            # q^s g(x_j) mod f, which _integer_scaling reads like tuples
            shifted = [ring._shifts(list(chain.from_iterable(map(
                x.coeffs.get, labels, [ring._zero] * len(labels))))) for x in columns]
            values = chain.from_iterable(shifted)
        self.scale, raw, rows = _integer_scaling(ring, values)
        if rows is not ring or self.scale not in (None, 1):
            columns = [Element._of(g.basis, rows, x.coeffs if self.scale == 1 else
                                   {l: raw(c) for l, c in x.coeffs.items()})
                       for x in columns]
            shifted = shifted and [list(map(raw, x)) for x in shifted]
        self.columns, self.shifted = columns, shifted
        self.ring, self.zero, self.one = rows, rows._zero, rows._one
        self.nonzero = _truths(self.zero)
        self.steps = _row_steps(rows)
        self.packed = (0, None, None) if packs else None
        self.flat = _flat(ring)
        self.top = None if not packs else max(map(abs, self.flat(
            chain.from_iterable(shifted) if shifted else
            chain.from_iterable(x.coeffs.values() for x in columns))), default=0)

    def _vector(self, coeffs: dict, raw=None):
        """The raw vector of ``coeffs``, each value through raw when one is
        given, and its support."""
        support = list(map(self.index.__getitem__, coeffs))
        y = [self.zero] * len(self.labels)
        for i, c in zip(support, coeffs.values() if raw is None
                        else map(raw, coeffs.values())):
            y[i] = c
        return y, support

    def mapped(self, xs):
        """g(x) for each Element x of this degree: one :meth:`_step` of the
        whole batch on a packed block, over ``Q`` and ``Q[q]/(f)`` with
        the batch scaled to integers by the lcm of its denominators; label
        by label (:func:`_accumulate`) on the others."""
        g = self.map
        if self.packed is None:
            return [g._apply(x) for x in xs]
        scale, raw, _ = _integer_scaling(
            g.ring, chain.from_iterable(x.coeffs.values() for x in xs))
        vectors = [self._vector(x.coeffs, None if scale in (None, 1) else raw)
                   for x in xs]
        return [self._boxed(y, support, 1, scale)
                for y, support in self._step(vectors)]

    def _step(self, vectors):
        """g applied to each raw vector y of the batch ``vectors`` of pairs
        (y, support), support the positions where y is nonzero; returns the
        (image, support) pairs.

        Each distinct y of the batch is mapped once, in order of its first
        occurrence, and every position that holds it gets that one image
        (equal inputs of a linear map have equal images): the chain levels
        of a collapsing g repeat many vectors.  So positions may share an
        image, and no caller changes one in place.

        On a ``packed`` block an image is the sum of y[j] times the packed
        column j (:func:`_kronecker`), on ``R[q]/(f)`` of the entry t of
        y[j] times the packed q^t g(x_j) mod f.  One codec serves the
        batch: its digits are bounded by ``top`` times the largest l1-norm
        of the batch's flat entries, and it is rebuilt only when the kept
        one is too narrow, as a wider slot is exact too.  On the other
        blocks an image is the sum of y[j] times column j by
        :func:`_accumulate`, the kernel that ``compose`` and ``__call__``
        run there label by label.
        """
        index, distinct, where = {}, [], []  # y -> its place in distinct
        for vector in vectors:
            i = index.setdefault(tuple(vector[0]), len(distinct))
            if i == len(distinct):
                distinct.append(vector)
            where.append(i)
        n = len(self.labels)
        if self.packed is not None:
            flat = self.flat
            batch = [list(map(y.__getitem__, s)) for y, s in distinct]
            norm = max((sum(map(abs, flat(ys))) for ys in batch), default=0)
            # the slot bits of _kronecker
            if (self.top * max(norm, 1)).bit_length() + 1 > 8 * self.packed[0]:
                codec = _kronecker(n, self.top, norm, self.map.ring)
                pack, zeros = codec[1], [self.zero] * n
                self.packed = codec[0], codec, (
                    [tuple(map(pack, x)) for x in self.shifted] if self.shifted
                    else [pack(map(img.coeffs.get, self.labels, zeros))
                          for img in self.columns])
            _, (_, _, unpack), columns = self.packed
            images = []
            for ys, (_, support) in zip(batch, distinct):
                y = unpack(sum(map(mul, flat(ys),
                                   flat(map(columns.__getitem__, support)))))
                images.append((y, list(compress(range(n), self.nonzero(y)))))
        else:
            ring, columns, vector = self.ring, self.columns, self._vector
            images = [vector(_accumulate(ring, ((y[j], columns[j], None)
                                                for j in support)))
                      for y, support in distinct]
        return [images[i] for i in where]

    def levels(self):
        """Yield, for k = 0, 1, 2, ..., the list of ``(j, y, support)`` for
        the labels x_j with g^k(x_j) != 0, in label order: y is the raw
        vector of g^k(x_j) (times ``scale**k`` over ``Q`` and ``Q[q]/(f)``)
        and ``support`` its nonzero positions.

        Level 0 holds the basis vectors and level 1 the stored images; each
        later level is one :meth:`_step` of the batch of the level before.
        It stops before the first empty level.
        """
        n = len(self.labels)
        level = []
        for j in range(n):
            y = [self.zero] * n
            y[j] = self.one
            level.append((j, y, [j]))
        if level:
            yield level
        level = [(j, *self._vector(img.coeffs))
                 for j, img in enumerate(self.columns)]
        while level := [entry for entry in level if entry[2]]:
            yield level
            images = self._step([(y, support) for _, y, support in level])
            level = [(j, *image) for (j, _, _), image in zip(level, images)]

    def box(self, k: int, j: int, y, support) -> Element:
        """The Element g^k(x_j) of the entry ``(j, y, support)`` of level k
        of :meth:`levels`: the basis vector at level 0 and the stored image
        at level 1."""
        g, label = self.map, self.labels[j]
        if k == 0:
            return Element.basis_vector(g.basis, g.ring, label)
        if k == 1:
            return g.images[label]
        return self._boxed(y, support, k)

    def _independent(self, vectors):
        """Positions of the raw vectors that lie outside the span of the
        vectors before them, by :func:`_eliminate`: the first basis of
        their span, in order."""
        reduced = _eliminate(vectors, self.steps, self.zero, len(self.labels))
        return [n for n, rest in enumerate(reduced) if rest is None]

    def nilpotency_exponent(self):
        """The least k with g^k(H_d) = 0, the number of nonempty
        :meth:`levels`; None when no power of g vanishes on H_d or the ring
        has no exact elimination here.

        Over ``Z`` and every field a nilpotent g has g^n(H_d) = 0, n the
        rank of H_d, so a nonempty level n means that none vanishes.
        """
        if self.steps is None:
            return None
        n = len(self.labels)
        exponent = sum(1 for _ in islice(self.levels(), n + 1))
        return None if exponent > n else exponent

    def _boxed(self, y, support, k, scale=1) -> Element:
        """The Element of step k, stored as y on ``support``, whose start
        was scaled by ``scale`` as well."""
        g, labels = self.map, self.labels
        denominator = 1 if self.scale is None else self.scale ** k * scale
        if denominator == 1:
            coeffs = {labels[i]: y[i] for i in support}
        else:
            coeffs = {labels[i]: _divided(y[i], denominator) for i in support}
        return Element._of(g.basis, g.ring, coeffs)


class Tensor2Map:
    """A linear endomap of the tensor square, by images on label pairs.

    Nothing in the package builds one: operators on the tensor square are
    decided by :func:`tensor_sum_vanishes` instead.  The class stays only
    because the benchmark's layer tracer (``perfbench/tracer.py``) patches
    its ``__init__`` and ``compose``.
    """

    __slots__ = ("basis", "ring", "images")

    def __init__(self, basis: GradedBasis, ring: Ring, images: dict):
        self.basis = basis
        self.ring = ring
        self.images = images

    def _check(self, other):
        if not _same_module(self, other):
            raise StructuralError("maps over different modules")

    def __call__(self, t: Tensor2Element) -> Tensor2Element:
        if not _same_module(t, self):
            raise StructuralError("argument from a different module")
        images = self.images
        return Tensor2Element.lincomb(
            self.basis, self.ring,
            ((c, images[pair], None) for pair, c in t.coeffs.items()))

    def compose(self, other: "Tensor2Map") -> "Tensor2Map":
        self._check(other)
        return Tensor2Map(self.basis, self.ring,
                          {pair: self(img) for pair, img in other.images.items()})


def kernel_vectors(columns: dict, keys, ring: Ring):
    """Kernel of the linear map sending key k to the sparse column columns[k].

    ``columns`` maps each key in ``keys`` to a dict (row-key -> canonical
    raw value of ``ring``), such as the ``coeffs`` of an element.  Returns
    the kernel basis read off the reduced row echelon form, one vector per
    non-pivot column c in order, as a dict key -> raw value: keys[c] with
    coefficient 1, then the keys of the pivot columns, in order.  Requires
    a field.

    The columns run through :func:`_eliminate` in order (over ``Q`` on
    integer rows, scaled by one common denominator), column c tagged with
    the unit vector e_c in c + 1 extra positions.  If it reduces to zero,
    its tag t holds the relation t[c] col_c + sum_(j<c) t[j] col_j = 0,
    with t[j] nonzero only on pivot columns.  That relation is unique up to
    a factor, so t / t[c] is exactly the reduced-echelon kernel vector,
    whatever the arithmetic.

    Columns that share no row key, even through other columns, span
    independent subspaces, so a column is a pivot exactly when it is one
    among its own group, and its unique relation lives in that group.  So
    each group of columns joined by shared row keys (such as the labels of
    one degree under a graded coproduct) is eliminated alone, and the
    vectors come out in the order of their free column.
    """
    if not ring.is_field:
        raise UnsupportedRingError(f"kernel computation needs a field, got {ring}")
    keys = list(keys)
    _, raw, rows = _integer_scaling(
        ring, (v for k in keys for v in columns[k].values()))
    steps, zero, one = _row_steps(rows), rows._zero, rows._one
    # the groups, by union-find on column positions over shared row keys
    parent, owner = list(range(len(keys))), {}

    def root(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for c, k in enumerate(keys):
        for rk in columns[k]:
            parent[root(owner.setdefault(rk, c))] = root(c)
    groups = {}
    for c in range(len(keys)):
        groups.setdefault(root(c), []).append(c)

    def tagged(group, row_index):
        width = len(row_index)
        for n, c in enumerate(group):
            v = [zero] * (width + n + 1)
            for rk, x in columns[keys[c]].items():
                v[row_index[rk]] = raw(x)
            v[width + n] = one
            yield v

    kernel = {}  # free column -> its kernel vector
    for group in groups.values():
        row_index = {}
        for c in group:
            for rk in columns[keys[c]]:
                row_index.setdefault(rk, len(row_index))
        width = len(row_index)
        for n, t in enumerate(_eliminate(tagged(group, row_index), steps,
                                         zero, width)):
            if t is not None:
                # t / t[n] over ``ring``, the free column first; the
                # integer rows of ``Q`` hold its raw values too
                t = t[width:]
                inv = ring._inv(t[n])
                kernel[group[n]] = {keys[group[j]]: ring._mul(t[j], inv)
                                    for j in (n, *range(n)) if t[j] != zero}
    return [kernel[c] for c in sorted(kernel)]
