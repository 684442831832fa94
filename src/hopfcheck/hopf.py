"""Hopf algebra presentations by structure constants, truncated at degree N.

A presentation supplies rules on the indices of its ``n`` basis labels in
basis order, the counit on degree-0 labels and the distinguished unit
label.  ``product_rule(i, j)`` returns the terms ``(k, raw)`` of the
product of labels i and j, or None when the table has no entry;
``coproduct_rule(i)`` returns the terms ``(a, b, raw)`` of the coproduct
of label i.  A rule's terms have distinct keys and nonzero canonical raw
values of the ring.  Each rule is called on its entry's first read, and
its result becomes a row, checked there once on indices against the
degree array: product row ``i * n + j`` holds the ``(k, raw)`` terms,
coproduct row ``i`` the columns ``a * n + b``, ``a``, ``b``, raw.  The
rows are the only structure table.  ``product_of_labels`` and
``coproduct_of_label`` are views built from them and kept, for witnesses,
``export`` and callers.  Rules on labels that return elements go through
one adapter, :meth:`HopfPresentation.from_label_rules`, which ring-checks
and indexes each element once.

Products, products in the tensor square, the antipode recursions and the
axiom checks sum rows into one raw-value dict on integer keys (``a * n +
b``, or ``(a * n + b) * n + c`` on triple tensors), and labels come back
only in what is returned; a failing check's witness is built from the
boxed elements it compared.

The antipode of a connected presentation is built by the degree recursion
coming from the left antipode axiom, with an independent second recursion
from the right axiom available as a cross-check.  Non-connected
presentations must supply an explicit antipode table, which is verified,
never derived.
"""

from __future__ import annotations

from array import array
from functools import reduce
from operator import add

from .errors import StructuralError, TruncationError, UnsupportedRingError
from .gmod import (Element, GradedBasis, GradedMap, Tensor2Element,
                   _check_ring, _nonzero)
from .report import FAIL, PASS, Report, witness_of
from .rings import Ring


class _Rows(dict):
    """Table rows by integer key, each made by ``fill(key)`` on its first read."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        row = self[key] = self.fill(key)
        return row


class HopfPresentation:
    def __init__(self, name: str, basis: GradedBasis, ring: Ring,
                 product_rule, coproduct_rule, counit0: dict,
                 unit_label: str, antipode_rule=None,
                 product_total: bool = False):
        if basis.degree_of(unit_label) != 0:
            raise StructuralError("unit label must have degree 0")
        self.name = name
        self.basis = basis
        self.ring = ring
        self.unit_label = unit_label
        self._product_rule = product_rule
        self._coproduct_rule = coproduct_rule
        # raw counit values of the degree-0 labels, the only nonzero ones
        self._counit0 = {l: ring._value(v) for l, v in counit0.items()
                         if basis.degree_of(l) == 0}
        self._antipode_rule = antipode_rule
        self._product_total = product_total
        self._n = len(basis.labels)
        self._index = {l: i for i, l in enumerate(basis.labels)}
        self._deg = [basis._degree_of[l] for l in basis.labels]
        self._eps = {self._index[l]: v for l, v in self._counit0.items()}
        self._prows, self._distinct = _Rows(self._product_row), {}
        self._crows = _Rows(self._coproduct_row)
        self._product_views = _Rows(lambda key: self._labelled(dict(self._prows[key])))
        self._coproduct_views = _Rows(lambda i: self._labelled(
            dict(zip(*self._crows[i][::3])), tensor=True))
        self._antipode: GradedMap | None = None
        self._antipode_right: GradedMap | None = None
        self._antipode_squared: GradedMap | None = None
        self._id_minus_antipode_squared: GradedMap | None = None

    @classmethod
    def from_label_rules(cls, name: str, basis: GradedBasis, ring: Ring,
                         product_rule, coproduct_rule, *args, **kwargs):
        """The presentation of rules on labels, its other arguments the
        constructor's: ``product_rule(l1, l2)`` returns an Element (None for
        no entry), ``coproduct_rule(l)`` a Tensor2Element.  Each element is
        ring-checked and indexed once, when its row is filled."""
        labels = basis.labels

        def indexed(x):
            if x is not None:
                _check_ring(ring, x)
                return H._indexed(x)

        H = cls(name, basis, ring,
                lambda i, j: indexed(product_rule(labels[i], labels[j])),
                lambda i: indexed(coproduct_rule(labels[i])), *args, **kwargs)
        return H

    # basic accessors -----------------------------------------------------
    @property
    def max_degree(self) -> int:
        return self.basis.max_degree

    def zero(self) -> Element:
        return Element.zero(self.basis, self.ring)

    def element(self, label: str) -> Element:
        return Element.basis_vector(self.basis, self.ring, label)

    def unit(self) -> Element:
        return self.element(self.unit_label)

    def degree_of(self, label: str) -> int:
        return self.basis.degree_of(label)

    def _key(self, label: str) -> int:
        """The index of a basis label."""
        try:
            return self._index[label]
        except KeyError:
            raise StructuralError(f"unknown basis label {label!r}") from None

    # structure maps: views of the rows, for witnesses and callers --------
    def product_of_labels(self, l1: str, l2: str) -> Element:
        return self._product_views[self._key(l1) * self._n + self._key(l2)]

    def coproduct_of_label(self, label: str) -> Tensor2Element:
        return self._coproduct_views[self._key(label)]

    # rows keyed by label indices ----------------------------------------
    def _product_row(self, key: int):
        """The rule's terms (k, raw) of entry ``key``, checked once here."""
        i, j = divmod(key, self._n)
        deg, top = self._deg, self.basis.max_degree
        d = deg[i] + deg[j]
        if d > top and not self._product_total:
            raise TruncationError(f"product {self._pair(i, j)} has degree {d} "
                                  f"> truncation {top}")
        row = self._product_rule(i, j)
        if row is None:
            raise TruncationError(f"product table has no entry for "
                                  f"{self._pair(i, j)} (degree {d})")
        row = tuple(row)
        if d <= top:
            for k, _ in row:
                if deg[k] != d:
                    raise StructuralError(f"product {self._pair(i, j)} not "
                                          f"homogeneous of degree {d}")
        return self._distinct.setdefault(row, row)  # equal rows shared

    def _pair(self, i: int, j: int) -> str:
        return f"{self.basis.labels[i]!r}*{self.basis.labels[j]!r}"

    def _coproduct_row(self, i: int):
        """The rule's terms (a, b, raw) of label i, checked once here, as
        the columns a * n + b (an int64 array: no int objects kept), a, b,
        raw; row[1:] zips to (a, b, raw), row[::3] to (key, raw)."""
        a, b, raw = tuple(zip(*self._coproduct_rule(i))) or ((), (), ())
        degree = self._deg.__getitem__
        if set(map(add, map(degree, a), map(degree, b))) - {degree(i)}:
            bad = {(degree(x), degree(y)) for x, y in zip(a, b)
                   if degree(x) + degree(y) != degree(i)}
            raise StructuralError(f"coproduct of {self.basis.labels[i]!r} "
                                  f"has off-degree support {sorted(bad)}")
        return array("q", map(add, map(self._n.__mul__, a), b)), a, b, raw

    def _indexed(self, x):
        """x's terms on label indices: (i, raw), or (a, b, raw) of a tensor."""
        index = self._index
        try:
            if isinstance(x, Tensor2Element):
                return [(index[a], index[b], c) for (a, b), c in x.coeffs.items()]
            return tuple(zip(map(index.__getitem__, x.coeffs), x.coeffs.values()))
        except KeyError as exc:
            raise StructuralError(f"unknown basis label {exc.args[0]!r}") from None

    def _labelled(self, acc: dict, tensor: bool = False):
        """The element (tensor) of an index-keyed raw-value dict."""
        labels, n, coeffs = self.basis.labels, self._n, _nonzero(self.ring, acc)
        if tensor:
            return Tensor2Element._of(self.basis, self.ring, {
                (labels[k // n], labels[k % n]): v for k, v in coeffs.items()})
        return Element._of(self.basis, self.ring,
                           {labels[k]: v for k, v in coeffs.items()})

    def _sum(self, terms) -> dict:
        """sum c * row over terms (c, row), each row iterating (key, raw)."""
        ring, acc = self.ring, {}
        mul, add, one = ring._mul, ring._add, ring._one
        for c, row in terms:
            for k, v in row:
                v = c if v is one else v if c is one else mul(c, v)
                acc[k] = add(acc[k], v) if k in acc else v
        return acc

    def _t2_sum(self, s, t) -> dict:
        """The componentwise product of tensors of terms (a, b, raw), on k * n + k2."""
        ring, rows, n, acc, t = self.ring, self._prows, self._n, {}, list(t)
        mul, add, one = ring._mul, ring._add, ring._one
        for a, b, c1 in s:
            a, b = a * n, b * n
            for a2, b2, c2 in t:
                row, row2 = rows[a + a2], rows[b + b2]
                c = c2 if c1 is one else c1 if c2 is one else mul(c1, c2)
                for k, v in row:
                    k, v = k * n, c if v is one else v if c is one else mul(c, v)
                    for k2, w in row2:
                        key, w = k + k2, v if w is one else w if v is one else mul(v, w)
                        acc[key] = add(acc[key], w) if key in acc else w
        return acc

    def counit_of_label(self, label: str):
        """The counit of a label, boxed."""
        self.degree_of(label)
        return self.ring.element(self._counit0.get(label, self.ring._zero))

    def product(self, x: Element, y: Element) -> Element:
        _check_ring(self.ring, x, y)
        rows, n, mul, ys = self._prows, self._n, self.ring._mul, self._indexed(y)
        return self._labelled(self._sum((mul(c1, c2), rows[i * n + j])
                                        for i, c1 in self._indexed(x) for j, c2 in ys))

    def coproduct(self, x: Element) -> Tensor2Element:
        """The coproduct of x; of one label with coefficient one, its row's view.
        Summed on the views' label pairs, which the result is keyed by:
        summing rows and boxing the keys measured slower here."""
        ring, cop = self.ring, self.coproduct_of_label
        _check_ring(ring, x)
        if len(x.coeffs) == 1 and ring._one in x.coeffs.values():
            return cop(next(iter(x.coeffs)))
        return Tensor2Element._of(self.basis, ring, _nonzero(ring, self._sum(
            (c, cop(l).coeffs.items()) for l, c in x.coeffs.items())))

    def counit_value(self, x: Element):
        """The counit of x as a raw value of the ring."""
        _check_ring(self.ring, x)
        ring, eps = self.ring, self._counit0
        mul, add, val = ring._mul, ring._add, ring._zero
        for label, c in x.coeffs.items():
            if label in eps:
                val = add(val, mul(c, eps[label]))
        return val

    def counit(self, x: Element):
        """The counit of x, boxed."""
        return self.ring.element(self.counit_value(x))

    def t2_product(self, s: Tensor2Element, t: Tensor2Element) -> Tensor2Element:
        """Componentwise product in the tensor square."""
        _check_ring(self.ring, s, t)
        return self._labelled(self._t2_sum(self._indexed(s), self._indexed(t)),
                              tensor=True)

    # connectedness -------------------------------------------------------
    def is_connected(self) -> bool:
        """Degree-0 rank 1 with the counit sending the unit label to 1.

        When true, the inverse image of 1 under the counit on degree 0 is
        exactly the unit label, so the coalgebra unity and the algebra
        unity coincide.
        """
        if self.basis.rank(0) != 1:
            return False
        return self.counit_of_label(self.unit_label) == self.ring.one

    def require_connected(self):
        """The precondition of every suite whose theorem assumes a connected
        presentation: raise a configuration error when it does not hold."""
        if not self.is_connected():
            raise StructuralError(f"{self.name} is not connected")

    # antipode ------------------------------------------------------------
    def _explicit_antipode(self) -> GradedMap:
        images = {}
        for label in self.basis.labels:
            img = self._antipode_rule(label)
            if img is None:
                raise UnsupportedRingError(
                    f"explicit antipode table undefined on {label!r}")
            images[label] = img
        return GradedMap(self.basis, self.ring, images)

    def _recursive_antipode(self, right: bool) -> GradedMap:
        if not self.is_connected():
            if self._antipode_rule is not None:
                return self._explicit_antipode()
            raise UnsupportedRingError(
                f"{self.name}: not connected and no explicit antipode given")
        # S(x) = -sum c S(x1) x2 over the terms with deg x1 < deg x (left),
        # or -sum c x1 S(x2) over those with deg x2 < deg x (right), each
        # product S(x1) x2 expanded into structure constants and the sum
        # negated once; the labels of degree < d are those of index < start
        ring, prows, crows, n = self.ring, self._prows, self._crows, self._n
        mul, neg, one = ring._mul, ring._neg, ring._one
        images, start = {0: {0: one}}, 1  # the unit, the one label of degree 0
        for d in range(1, self.max_degree + 1):
            for i in range(start, start + self.basis.rank(d)):
                # a list: cheaper per term than resuming a generator
                acc = self._sum([
                    (c if v is one else v if c is one else mul(c, v),
                     prows[a * n + m if right else m * n + b])
                    for a, b, c in zip(*crows[i][1:]) if (b if right else a) < start
                    for m, v in images[b if right else a].items()])
                images[i] = {k: neg(v) for k, v in _nonzero(ring, acc).items()}
            start += self.basis.rank(d)
        return GradedMap(self.basis, ring, {self.basis.labels[i]: self._labelled(img)
                                            for i, img in images.items()})

    def antipode(self) -> GradedMap:
        """Antipode from the left axiom recursion (cached)."""
        if self._antipode is None:
            self._antipode = self._recursive_antipode(right=False)
        return self._antipode

    def antipode_squared(self) -> GradedMap:
        """S o S for the antipode S of :meth:`antipode` (cached)."""
        if self._antipode_squared is None:
            S = self.antipode()
            self._antipode_squared = S.compose(S)
        return self._antipode_squared

    def id_minus_antipode_squared(self) -> GradedMap:
        """id - S^2, whose chains the antipode suites check (cached: the
        suites of one run share it and the degree blocks it keeps)."""
        if self._id_minus_antipode_squared is None:
            one = GradedMap.identity(self.basis, self.ring)
            self._id_minus_antipode_squared = one - self.antipode_squared()
        return self._id_minus_antipode_squared

    def antipode_oracle(self) -> GradedMap:
        """Independent antipode from the right axiom recursion (cached).

        On a non-connected presentation both recursions fall back to the
        explicit antipode table, so this is not independent there."""
        if self._antipode_right is None:
            self._antipode_right = self._recursive_antipode(right=True)
        return self._antipode_right

    def has_explicit_antipode(self) -> bool:
        return self._antipode_rule is not None

    # verifiers -----------------------------------------------------------
    def coassociative_on(self, label: str) -> bool:
        """(coproduct(x)id) o coproduct = (id(x)coproduct) o coproduct on a label.

        Over the terms c a(x)b of coproduct(x), the sides are the sums of
        c coproduct(a)(x)b and of c a(x)coproduct(b), compared as triple
        tensors (a1, a2, b) and (a, b1, b2), both built in one pass."""
        ring, rows, n = self.ring, self._crows, self._n
        mul, add, one = ring._mul, ring._add, ring._one
        left, right = {}, {}
        for a, b, c in zip(*rows[self._index[label]][1:]):
            for key, v in zip(*rows[a][::3]):
                key, v = key * n + b, c if v is one else v if c is one else mul(c, v)
                left[key] = add(left[key], v) if key in left else v
            a *= n * n
            for key, v in zip(*rows[b][::3]):
                key, v = a + key, c if v is one else v if c is one else mul(c, v)
                right[key] = add(right[key], v) if key in right else v
        return left == right or _nonzero(ring, left) == _nonzero(ring, right)

    def counit_holds_on(self, label: str, left: bool) -> bool:
        """(id(x)counit) o coproduct = id on a label, or with ``left`` false
        its mirror (counit(x)id) o coproduct = id."""
        ring, eps, acc, i = self.ring, self._eps, {}, self._index[label]
        for a, b, c in zip(*self._crows[i][1:]):
            a, b = (a, b) if left else (b, a)
            if b in eps:
                acc[a] = ring._add(acc.get(a, ring._zero), ring._mul(c, eps[b]))
        return _nonzero(ring, acc) == {i: ring._one}

    def verify_bialgebra(self) -> Report:
        """Check the bialgebra axioms on basis labels and label pairs.

        Rings keep raw values canonical, so comparing elements is exact.
        A failing compatibility check's witness is the difference of the
        two sides it compared.  The pairs (x, y) with deg x + deg y <= N
        are taken degree by degree of x, in basis order."""
        top, ring = self.max_degree, self.ring
        rep = Report(f"bialgebra({self.name})")
        labels = self.basis.labels
        u, unit = self.unit_label, self.unit()

        # unit axioms
        cop_u = self.coproduct_of_label(u)
        if cop_u == unit.tensor(unit) and self.counit_of_label(u) == self.ring.one:
            rep.add("unit", "coproduct(1) = 1(x)1 and counit(1) = 1", PASS)
        else:
            rep.add("unit", "coproduct(1) = 1(x)1 and counit(1) = 1", FAIL,
                    witness_of(u, cop_u))

        rep.per_label("coassociativity",
                      "(coproduct(x)id) o coproduct = (id(x)coproduct) o coproduct",
                      labels, self.coassociative_on)
        rep.per_label("counit-left", "(id(x)counit) o coproduct = id",
                      labels, lambda l: self.counit_holds_on(l, left=True))
        rep.per_label("counit-right", "(counit(x)id) o coproduct = id",
                      labels, lambda l: self.counit_holds_on(l, left=False))

        # compatibility: coproduct and counit are algebra maps
        pairs = []
        for d in range(top + 1):
            rest = self.basis.labels_up_to(top - d)
            pairs += ((x, y) for x in self.basis.labels_of_degree(d) for y in rest)
        index, eps, prows, crows = self._index, self._eps, self._prows, self._crows
        n, mul, zero, one = self._n, ring._mul, ring._zero, ring._one

        def coproduct_failure(pair):
            i, j = map(index.__getitem__, pair)
            r = prows[i * n + j]  # coproduct(x*y), of one label its own row
            lhs = (dict(zip(*crows[r[0][0]][::3])) if len(r) == 1 and r[0][1] is one
                   else self._sum((c, zip(*crows[k][::3])) for k, c in r))
            rhs = self._t2_sum(zip(*crows[i][1:]), zip(*crows[j][1:]))
            if lhs == rhs or _nonzero(ring, lhs) == _nonzero(ring, rhs):
                return None
            return witness_of(pair, self.coproduct(self.product_of_labels(*pair))
                              - self.t2_product(*map(self.coproduct_of_label, pair)))

        def counit_failure(pair):
            i, j = map(index.__getitem__, pair)
            lhs = reduce(ring._add, (mul(v, eps[k]) for k, v in prows[i * n + j]
                                     if k in eps), zero)
            if lhs == mul(eps.get(i, zero), eps.get(j, zero)):
                return None
            return witness_of(pair, ring.element(lhs))

        rep.first_failure("coproduct-multiplicative",
                          "coproduct(x*y) = coproduct(x)*coproduct(y)",
                          pairs, coproduct_failure)
        rep.first_failure("counit-multiplicative",
                          "counit(x*y) = counit(x)*counit(y)",
                          pairs, counit_failure)
        return rep

    def verify_antipode_axioms(self, S: GradedMap | None = None) -> Report:
        """Check m o (S(x)id) o coproduct = unit o counit and its mirror."""
        if S is None:
            S = self.antipode()
        rep = Report(f"antipode-axioms({self.name})")
        labels, ring, index, eps = self.basis.labels, self.ring, self._index, self._eps
        mul, zero, u, n = ring._mul, ring._zero, index[self.unit_label], self._n
        S._check(self.unit())  # S is over this basis and ring
        ident = [((i, ring._one),) for i in range(n)]
        images = [self._indexed(S.images[l]) for l in labels]

        def convolution_ok(f, g):
            """m o (f(x)g) o coproduct = unit o counit on a label: the tensor
            (f(x)g)(coproduct(x)), keyed m * n + m2, summed first."""
            def check(label):
                i, prows = index[label], self._prows
                t = self._sum((mul(c, v), [(m * n + m2, w) for m2, w in g[b]])
                              for a, b, c in zip(*self._crows[i][1:]) for m, v in f[a])
                acc = self._sum((c, prows[k]) for k, c in _nonzero(ring, t).items())
                e = eps.get(i, zero)
                return _nonzero(ring, acc) == ({u: e} if e != zero else {})
            return check

        rep.per_label("left-axiom",
                      "m o (S(x)id) o coproduct = unit o counit",
                      labels, convolution_ok(images, ident))
        rep.per_label("right-axiom",
                      "m o (id(x)S) o coproduct = unit o counit",
                      labels, convolution_ok(ident, images))
        return rep

