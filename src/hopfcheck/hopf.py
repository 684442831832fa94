"""Hopf algebra presentations by structure constants, truncated at degree N.

A presentation supplies rules for the product of two basis labels, the
coproduct of a label, the counit on degree-0 labels and the distinguished
unit label.  Rules may be backed by explicit tables or computed lazily;
results are cached and validated (grading and ring) on first use.  Every
check reads the structure constants through ``product_of_labels`` and
``coproduct_of_label`` and compares elements, whose coefficients are raw
ring values; a failing check's witness is built from the values it
compared.  Products, coproducts, the antipode recursions and the axiom
checks sum the table rows straight into one raw-value dict.

The antipode of a connected presentation is built by the degree recursion
coming from the left antipode axiom, with an independent second recursion
from the right axiom available as a cross-check.  Non-connected
presentations must supply an explicit antipode table, which is verified,
never derived.
"""

from __future__ import annotations

from .errors import StructuralError, TruncationError, UnsupportedRingError
from .gmod import (Element, GradedBasis, GradedMap, Tensor2Element,
                   _check_ring, _nonzero)
from .report import FAIL, PASS, Report, witness_of
from .rings import Ring


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
        self._product_cache: dict = {}
        self._coproduct_cache: dict = {}
        self._antipode: GradedMap | None = None
        self._antipode_right: GradedMap | None = None
        self._antipode_squared: GradedMap | None = None

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

    # structure maps ------------------------------------------------------
    def product_of_labels(self, l1: str, l2: str) -> Element:
        key = (l1, l2)
        cached = self._product_cache.get(key)
        if cached is not None:
            return cached
        d = self.degree_of(l1) + self.degree_of(l2)
        if d > self.max_degree and not self._product_total:
            raise TruncationError(
                f"product {l1!r}*{l2!r} has degree {d} > truncation {self.max_degree}")
        result = self._product_rule(l1, l2)
        if result is None:
            raise TruncationError(
                f"product table has no entry for {l1!r}*{l2!r} (degree {d})")
        _check_ring(self.ring, result)
        if d <= self.max_degree:
            bad = result.degrees() - {d}
            if bad:
                raise StructuralError(
                    f"product {l1!r}*{l2!r} not homogeneous of degree {d}")
        self._product_cache[key] = result
        return result

    def coproduct_of_label(self, label: str) -> Tensor2Element:
        cached = self._coproduct_cache.get(label)
        if cached is not None:
            return cached
        result = self._coproduct_rule(label)
        _check_ring(self.ring, result)
        n = self.degree_of(label)
        bad = {bd for bd in result.bidegree_support() if bd[0] + bd[1] != n}
        if bad:
            raise StructuralError(
                f"coproduct of {label!r} has off-degree support {sorted(bad)}")
        self._coproduct_cache[label] = result
        return result

    def counit_of_label(self, label: str):
        """The counit of a label, boxed."""
        self.degree_of(label)
        return self.ring.element(self._counit0.get(label, self.ring._zero))

    def product(self, x: Element, y: Element) -> Element:
        ring, acc = self.ring, {}
        _check_ring(ring, x, y)
        pl, mul, add, one = self.product_of_labels, ring._mul, ring._add, ring._one
        for l1, c1 in x.coeffs.items():
            for l2, c2 in y.coeffs.items():
                c = c2 if c1 is one else mul(c1, c2)
                for k, v in pl(l1, l2).coeffs.items():
                    v = v if c is one else mul(c, v)
                    acc[k] = add(acc[k], v) if k in acc else v
        return Element._of(self.basis, ring, _nonzero(ring, acc))

    def coproduct(self, x: Element) -> Tensor2Element:
        """The coproduct of x; of one label with coefficient one, its table entry."""
        ring, cop, acc = self.ring, self.coproduct_of_label, {}
        _check_ring(ring, x)
        if len(x.coeffs) == 1 and ring._one in x.coeffs.values():
            return cop(next(iter(x.coeffs)))
        mul, add, one = ring._mul, ring._add, ring._one
        for l, c in x.coeffs.items():
            for k, v in cop(l).coeffs.items():
                v = v if c is one else mul(c, v)
                acc[k] = add(acc[k], v) if k in acc else v
        return Tensor2Element._of(self.basis, ring, _nonzero(ring, acc))

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
        ring, acc = self.ring, {}
        _check_ring(ring, s, t)
        pl, mul, add, one = self.product_of_labels, ring._mul, ring._add, ring._one
        for (a, b), c1 in s.coeffs.items():
            for (a2, b2), c2 in t.coeffs.items():
                row, row2 = pl(a, a2).coeffs.items(), pl(b, b2).coeffs.items()
                c = c2 if c1 is one else mul(c1, c2)
                for k, v in row:
                    v = v if c is one else mul(c, v)
                    for k2, w in row2:
                        key, w = (k, k2), v if w is one else mul(v, w)
                        acc[key] = add(acc[key], w) if key in acc else w
        return Tensor2Element._of(self.basis, ring, _nonzero(ring, acc))

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
        # product S(x1) x2 expanded into structure constants
        ring, images = self.ring, {self.unit_label: self.unit()}
        pl, cop, deg = self.product_of_labels, self.coproduct_of_label, self.degree_of
        mul, add, neg, one = ring._mul, ring._add, ring._neg, ring._one
        for d in range(1, self.max_degree + 1):
            for label in self.basis.labels_of_degree(d):
                acc = {}
                for (l1, l2), c in cop(label).coeffs.items():
                    if deg(l2 if right else l1) >= d:
                        continue
                    for m, v in images[l2 if right else l1].coeffs.items():
                        v = neg(c if v is one else mul(c, v))
                        for k, w in (pl(l1, m) if right else pl(m, l2)).coeffs.items():
                            w = w if v is one else mul(v, w)
                            acc[k] = add(acc[k], w) if k in acc else w
                images[label] = Element._of(self.basis, ring, _nonzero(ring, acc))
        return GradedMap(self.basis, ring, images)

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
        ring, cop = self.ring, self.coproduct_of_label
        mul, add, one = ring._mul, ring._add, ring._one
        left, right = {}, {}
        for (a, b), c in cop(label).coeffs.items():
            for (a1, a2), v in cop(a).coeffs.items():
                key, v = (a1, a2, b), v if c is one else mul(c, v)
                left[key] = add(left[key], v) if key in left else v
            for (b1, b2), v in cop(b).coeffs.items():
                key, v = (a, b1, b2), v if c is one else mul(c, v)
                right[key] = add(right[key], v) if key in right else v
        return _nonzero(ring, left) == _nonzero(ring, right)

    def counit_holds_on(self, label: str, left: bool) -> bool:
        """(id(x)counit) o coproduct = id on a label, or with ``left`` false
        its mirror (counit(x)id) o coproduct = id."""
        ring, eps, acc = self.ring, self._counit0, {}
        for key, c in self.coproduct_of_label(label).coeffs.items():
            a, b = key if left else key[::-1]
            if b in eps:
                acc[a] = ring._add(acc.get(a, ring._zero), ring._mul(c, eps[b]))
        return _nonzero(ring, acc) == {label: ring._one}

    def verify_bialgebra(self) -> Report:
        """Check the bialgebra axioms on basis labels and label pairs.

        Rings keep raw values canonical, so comparing elements is exact.
        A failing compatibility check's witness is the difference of the
        two sides it compared.  The pairs (x, y) with deg x + deg y <= N
        are taken degree by degree of x, in basis order."""
        n = self.max_degree
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
        for d in range(n + 1):
            rest = self.basis.labels_up_to(n - d)
            pairs += ((x, y) for x in self.basis.labels_of_degree(d) for y in rest)
        pl, cop, eps = self.product_of_labels, self.coproduct_of_label, self._counit0
        mul, zero = self.ring._mul, self.ring._zero

        def coproduct_failure(pair):
            x, y = pair
            lhs = self.coproduct(pl(x, y))
            rhs = self.t2_product(cop(x), cop(y))
            return None if lhs == rhs else witness_of(pair, lhs - rhs)

        def counit_failure(pair):
            x, y = pair
            lhs = self.counit_value(pl(x, y))
            if lhs == mul(eps.get(x, zero), eps.get(y, zero)):
                return None
            return witness_of(pair, self.ring.element(lhs))

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
        labels, ring = self.basis.labels, self.ring
        ident, pl = GradedMap.identity(self.basis, ring), self.product_of_labels
        mul, add, one = ring._mul, ring._add, ring._one

        def convolution_ok(f, g):
            """m o (f(x)g) o coproduct = unit o counit on a label."""
            def check(label):
                t, acc = f.apply_tensor(g, self.coproduct_of_label(label)), {}
                for (a, b), c in t.coeffs.items():
                    for k, v in pl(a, b).coeffs.items():
                        v = v if c is one else mul(c, v)
                        acc[k] = add(acc[k], v) if k in acc else v
                return (_nonzero(ring, acc) ==
                        self.unit().scale(self.counit_of_label(label)).coeffs)
            return check

        rep.per_label("left-axiom",
                      "m o (S(x)id) o coproduct = unit o counit",
                      labels, convolution_ok(S, ident))
        rep.per_label("right-axiom",
                      "m o (id(x)S) o coproduct = unit o counit",
                      labels, convolution_ok(ident, S))
        return rep

