"""Graded free modules with a finite named basis per degree.

Elements of the module and of its tensor square are sparse coefficient
dicts (label -> RingElement, resp. (label, label) -> RingElement) with no
stored zeros.  Linear maps are stored by their images on basis labels and
support composition, powers, sums and tensor products.

All coefficient arithmetic on these dicts runs through one kernel,
:meth:`_Sparse.lincomb`, on raw ring values; ``RingElement`` boxes are made
only for the coefficients it returns.
"""

from __future__ import annotations

from .errors import StructuralError, UnsupportedRingError
from .rings import Ring, RingElement


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
    """Raise unless every item (a RingElement or a sparse element) is over ring."""
    for item in items:
        if item is not None and item.ring is not ring and item.ring != ring:
            raise StructuralError(f"mixed-ring operands: {item.ring} vs {ring}")


class _Sparse:
    """Shared arithmetic for Element and Tensor2Element.

    Every coefficient is a nonzero RingElement of ``ring``: the constructor
    checks and prunes what it is given, and :meth:`lincomb` produces only
    such coefficients.
    """

    __slots__ = ("basis", "ring", "coeffs")

    def __init__(self, basis: GradedBasis, ring: Ring, coeffs: dict):
        self.basis = basis
        self.ring = ring
        self.coeffs = {k: c for k, v in coeffs.items() if (c := ring.element(v))}

    @classmethod
    def _of(cls, basis: GradedBasis, ring: Ring, coeffs: dict):
        """Wrap coefficients that already satisfy the class invariant."""
        self = object.__new__(cls)
        self.basis, self.ring, self.coeffs = basis, ring, coeffs
        return self

    @classmethod
    def lincomb(cls, basis: GradedBasis, ring: Ring, terms):
        """The sum of c*x, or of c*(x (x) y), over ``terms`` of (c, x, y).

        ``c`` is a RingElement and ``x``, ``y`` are sparse elements, with
        ``y`` None for a plain multiple; the keys of a tensor term are the
        pairs (key of x, key of y).  The rings of c, x and y are checked
        once per term.  Products and sums run on canonical raw values
        (``ring._mul``, ``ring._add``) in one dict; zeros are dropped against
        the raw zero, and each surviving coefficient is boxed once.  This is
        the one accumulation kernel under every sparse sum, map application
        and structure-constant expansion.
        """
        mul, add, one = ring._mul, ring._add, ring.one
        acc = {}
        for c, x, y in terms:
            if c.ring is not ring or x.ring is not ring or (
                    y is not None and y.ring is not ring):
                _check_ring(ring, c, x, y)
            c = None if c is one else c.value
            for k, v in x.coeffs.items():
                v = v.value if c is None else mul(c, v.value)
                if y is None:
                    acc[k] = add(acc[k], v) if k in acc else v
                    continue
                for k2, w in y.coeffs.items():
                    key, t = (k, k2), mul(v, w.value)
                    acc[key] = add(acc[key], t) if key in acc else t
        zero = ring._zero
        return cls._of(basis, ring, {k: RingElement(ring, v)
                                     for k, v in acc.items() if v != zero})

    def _check(self, other):
        if not _same_module(self, other):
            raise StructuralError("operands from different modules")
        if type(self) is not type(other):
            raise StructuralError("mixing module and tensor-square elements")

    def __add__(self, other):
        self._check(other)
        one = self.ring.one
        return self.lincomb(self.basis, self.ring,
                            ((one, self, None), (one, other, None)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        ring = self.ring
        neg = ring._neg
        return self._of(self.basis, ring, {k: RingElement(ring, neg(v.value))
                                           for k, v in self.coeffs.items()})

    def scale(self, c):
        return self.lincomb(self.basis, self.ring,
                            ((self.ring.element(c), self, None),))

    def __rmul__(self, c):
        return self.scale(c)

    def coeff(self, key) -> RingElement:
        return self.coeffs.get(key, self.ring.zero)

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
        return " + ".join(f"{v}*{k}" for k, v in sorted(
            self.coeffs.items(), key=lambda kv: str(kv[0])))


class Element(_Sparse):
    """Sparse module element: label -> coefficient."""

    @classmethod
    def zero(cls, basis, ring):
        return cls(basis, ring, {})

    @classmethod
    def basis_vector(cls, basis, ring, label):
        basis.degree_of(label)
        return cls(basis, ring, {label: ring.one})

    def degrees(self):
        return {self.basis.degree_of(l) for l in self.coeffs}

    def tensor(self, other: "Element") -> "Tensor2Element":
        self._check(other)
        return Tensor2Element.lincomb(self.basis, self.ring,
                                      ((self.ring.one, self, other),))


class Tensor2Element(_Sparse):
    """Sparse tensor-square element: (label, label) -> coefficient."""

    def bidegree_support(self):
        deg = self.basis.degree_of
        return {(deg(l1), deg(l2)) for (l1, l2) in self.coeffs}


class GradedMap:
    """A linear endomap given by its images on all basis labels; each image
    is homogeneous of its label's degree and over the map's ring."""

    __slots__ = ("basis", "ring", "images")

    def __init__(self, basis: GradedBasis, ring: Ring, images: dict):
        missing = [l for l in basis.labels if l not in images]
        if missing:
            raise StructuralError(f"map undefined on labels {missing[:3]}")
        self.basis = basis
        self.ring = ring
        self.images = images
        for label, img in images.items():
            _check_ring(ring, img)
            bound = basis.degree_of(label)
            bad = [d for d in img.degrees() if d != bound]
            if bad:
                raise StructuralError(
                    f"image of {label!r} has degree {max(bad)}, "
                    f"violating the degree bound {bound}")

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
        if not _same_module(x, self):
            raise StructuralError("argument from a different module")
        return self._apply(x)

    def _apply(self, x: Element) -> Element:
        images = self.images
        return Element.lincomb(self.basis, self.ring,
                               ((c, images[l], None) for l, c in x.coeffs.items()))

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other."""
        self._check(other)
        return GradedMap(self.basis, self.ring, {l: self._apply(other.images[l])
                                                 for l in self.basis.labels})

    def __add__(self, other):
        self._check(other)
        return GradedMap(self.basis, self.ring,
                         {l: self.images[l] + other.images[l]
                          for l in self.basis.labels})

    def __sub__(self, other):
        self._check(other)
        return GradedMap(self.basis, self.ring,
                         {l: self.images[l] - other.images[l]
                          for l in self.basis.labels})

    def scale(self, c) -> "GradedMap":
        c = self.ring.element(c)
        return GradedMap(self.basis, self.ring,
                         {l: img.scale(c) for l, img in self.images.items()})

    def power(self, k: int) -> "GradedMap":
        if k < 0:
            raise StructuralError("negative map power")
        out = GradedMap.identity(self.basis, self.ring)
        for _ in range(k):
            out = self.compose(out)
        return out

    def tensor(self, other: "GradedMap") -> "Tensor2Map":
        self._check(other)
        images = {}
        for l1 in self.basis.labels:
            for l2 in self.basis.labels:
                images[(l1, l2)] = self.images[l1].tensor(other.images[l2])
        return Tensor2Map(self.basis, self.ring, images)

    def apply_tensor(self, other: "GradedMap", t: Tensor2Element) -> Tensor2Element:
        """(self (x) other)(t) without materializing the tensor map."""
        self._check(other)
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


class Tensor2Map:
    """A linear endomap of the tensor square, by images on label pairs."""

    __slots__ = ("basis", "ring", "images")

    def __init__(self, basis: GradedBasis, ring: Ring, images: dict):
        self.basis = basis
        self.ring = ring
        self.images = images

    @classmethod
    def identity(cls, basis, ring):
        images = {}
        for l1 in basis.labels:
            for l2 in basis.labels:
                images[(l1, l2)] = Tensor2Element(basis, ring, {(l1, l2): ring.one})
        return cls(basis, ring, images)

    def _check(self, other):
        if not _same_module(self, other):
            raise StructuralError("maps over different modules")

    def __call__(self, t: Tensor2Element) -> Tensor2Element:
        images = self.images
        return Tensor2Element.lincomb(
            self.basis, self.ring,
            ((c, images[pair], None) for pair, c in t.coeffs.items()))

    def compose(self, other: "Tensor2Map") -> "Tensor2Map":
        self._check(other)
        return Tensor2Map(self.basis, self.ring,
                          {pair: self(img) for pair, img in other.images.items()})

    def __add__(self, other):
        self._check(other)
        return Tensor2Map(self.basis, self.ring,
                          {p: self.images[p] + other.images[p] for p in self.images})

    def __sub__(self, other):
        self._check(other)
        return Tensor2Map(self.basis, self.ring,
                          {p: self.images[p] - other.images[p] for p in self.images})

    def scale(self, c):
        c = self.ring.element(c)
        return Tensor2Map(self.basis, self.ring,
                          {p: img.scale(c) for p, img in self.images.items()})

    def power(self, k: int) -> "Tensor2Map":
        if k < 0:
            raise StructuralError("negative map power")
        out = Tensor2Map.identity(self.basis, self.ring)
        for _ in range(k):
            out = self.compose(out)
        return out

    def __eq__(self, other):
        if not isinstance(other, Tensor2Map):
            return NotImplemented
        return (self.basis == other.basis and self.ring == other.ring
                and self.images == other.images)


def kernel_vectors(columns: dict, keys, ring: Ring):
    """Kernel of the linear map sending key k to the sparse column columns[k].

    ``columns`` maps each key in ``keys`` to a dict (row-key -> RingElement).
    Returns a spanning list of kernel vectors as dicts key -> RingElement,
    computed by exact Gaussian elimination on raw values.  Requires a field.
    """
    if not ring.is_field:
        raise UnsupportedRingError(f"kernel computation needs a field, got {ring}")
    keys = list(keys)
    row_keys = []
    row_index = {}
    for k in keys:
        for rk in columns[k]:
            if rk not in row_index:
                row_index[rk] = len(row_keys)
                row_keys.append(rk)
    ncols, nrows = len(keys), len(row_keys)
    mul, add, neg, zero = ring._mul, ring._add, ring._neg, ring._zero
    mat = [[zero] * ncols for _ in range(nrows)]
    for j, k in enumerate(keys):
        for rk, v in columns[k].items():
            if v.ring is not ring:
                _check_ring(ring, v)
            mat[row_index[rk]][j] = v.value
    # reduced row echelon form with leftmost-nonzero pivoting; only the
    # pivot row's nonzero columns are touched when eliminating
    pivot_col_of_row = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c] != zero), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        prow = mat[r]
        inv = ring._inv(prow[c])
        support = [j for j in range(c, ncols) if prow[j] != zero]
        for j in support:
            prow[j] = mul(inv, prow[j])
        for i in range(nrows):
            row = mat[i]
            f = row[c]
            if i != r and f != zero:
                f = neg(f)
                for j in support:
                    row[j] = add(row[j], mul(f, prow[j]))
        pivot_col_of_row.append(c)
        r += 1
        if r == nrows:
            break
    pivot_cols = set(pivot_col_of_row)
    kernel = []
    for c in range(ncols):
        if c in pivot_cols:
            continue
        vec = {keys[c]: ring.one}
        for i, pc in enumerate(pivot_col_of_row):
            v = mat[i][c]
            if v != zero:
                vec[keys[pc]] = RingElement(ring, neg(v))
        kernel.append(vec)
    return kernel
