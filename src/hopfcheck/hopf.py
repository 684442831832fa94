"""Hopf algebra presentations by structure constants, truncated at degree N.

A presentation supplies rules for the product of two basis labels, the
coproduct of a label, the counit on degree-0 labels and the distinguished
unit label.  Rules may be backed by explicit tables or computed lazily;
results are cached and validated (grading) on first use.

The antipode of a connected presentation is built by the degree recursion
coming from the left antipode axiom, with an independent second recursion
from the right axiom available as a cross-check.  Non-connected
presentations must supply an explicit antipode table, which is verified,
never derived.
"""

from __future__ import annotations

from .errors import StructuralError, TruncationError, UnsupportedRingError
from .gmod import Element, GradedBasis, GradedMap, Tensor2Element
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
        self._counit0 = dict(counit0)
        self._antipode_rule = antipode_rule
        self._product_total = product_total
        self._product_cache: dict = {}
        self._coproduct_cache: dict = {}
        self._antipode: GradedMap | None = None
        self._antipode_right: GradedMap | None = None

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
        n = self.degree_of(label)
        bad = {bd for bd in result.bidegree_support() if bd[0] + bd[1] != n}
        if bad:
            raise StructuralError(
                f"coproduct of {label!r} has off-degree support {sorted(bad)}")
        self._coproduct_cache[label] = result
        return result

    def counit_of_label(self, label: str):
        if self.degree_of(label) == 0:
            return self._counit0.get(label, self.ring.zero)
        return self.ring.zero

    def product(self, x: Element, y: Element) -> Element:
        pl = self.product_of_labels
        return Element.lincomb(self.basis, self.ring,
                               ((c1 * c2, pl(l1, l2), None)
                                for l1, c1 in x.coeffs.items()
                                for l2, c2 in y.coeffs.items()))

    def coproduct(self, x: Element) -> Tensor2Element:
        return Tensor2Element.lincomb(
            self.basis, self.ring,
            ((c, self.coproduct_of_label(l), None) for l, c in x.coeffs.items()))

    def counit(self, x: Element):
        val = self.ring.zero
        for label, c in x.coeffs.items():
            val = val + c * self.counit_of_label(label)
        return val

    def unit_times_counit(self, x: Element) -> Element:
        return self.unit().scale(self.counit(x))

    def t2_product(self, s: Tensor2Element, t: Tensor2Element) -> Tensor2Element:
        """Componentwise product in the tensor square."""
        pl = self.product_of_labels
        return Tensor2Element.lincomb(self.basis, self.ring,
                                      ((c1 * c2, pl(a, a2), pl(b, b2))
                                       for (a, b), c1 in s.coeffs.items()
                                       for (a2, b2), c2 in t.coeffs.items()))

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
        images = {self.unit_label: self.unit()}
        pl, deg = self.product_of_labels, self.degree_of
        for d in range(1, self.max_degree + 1):
            for label in self.basis.labels_of_degree(d):
                terms = []
                for (l1, l2), c in self.coproduct_of_label(label).coeffs.items():
                    if right and deg(l2) < d:
                        terms += ((-c * v, pl(l1, m), None)
                                  for m, v in images[l2].coeffs.items())
                    elif not right and deg(l1) < d:
                        terms += ((-c * v, pl(m, l2), None)
                                  for m, v in images[l1].coeffs.items())
                images[label] = Element.lincomb(self.basis, self.ring, terms)
        return GradedMap(self.basis, self.ring, images)

    def antipode(self) -> GradedMap:
        """Antipode from the left axiom recursion (cached)."""
        if self._antipode is None:
            self._antipode = self._recursive_antipode(right=False)
        return self._antipode

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

        Both sides are triple tensors, accumulated with pair keys
        ((a1, a2), b) and (a, (b1, b2)) and compared flattened."""
        cop, e = self.coproduct_of_label, self.element
        terms = cop(label).coeffs.items()
        left = Tensor2Element.lincomb(self.basis, self.ring,
                                      ((c, cop(a), e(b)) for (a, b), c in terms))
        right = Tensor2Element.lincomb(self.basis, self.ring,
                                       ((c, e(a), cop(b)) for (a, b), c in terms))
        return ({(*k, b): v for (k, b), v in left.coeffs.items()}
                == {(a, *k): v for (a, k), v in right.coeffs.items()})

    def counit_holds_on(self, label: str, left: bool) -> bool:
        """(id(x)counit) o coproduct = id on a label, or with ``left`` false
        its mirror (counit(x)id) o coproduct = id."""
        eps = self.counit_of_label
        acc = Element.lincomb(
            self.basis, self.ring,
            ((c * eps(b), self.element(a), None) if left
             else (c * eps(a), self.element(b), None)
             for (a, b), c in self.coproduct_of_label(label).coeffs.items()))
        return acc == self.element(label)

    def verify_bialgebra(self, up_to: int | None = None) -> Report:
        """Check the bialgebra axioms on basis labels up to a degree bound."""
        n = self.max_degree if up_to is None else up_to
        rep = Report(f"bialgebra({self.name})")
        labels = self.basis.labels_up_to(n)

        # unit axioms
        du = self.coproduct_of_label(self.unit_label)
        expected = self.unit().tensor(self.unit())
        if du == expected and self.counit_of_label(self.unit_label) == self.ring.one:
            rep.add("unit", "coproduct(1) = 1(x)1 and counit(1) = 1", PASS)
        else:
            rep.add("unit", "coproduct(1) = 1(x)1 and counit(1) = 1", FAIL,
                    witness_of(self.unit_label, du))

        rep.per_label("coassociativity",
                      "(coproduct(x)id) o coproduct = (id(x)coproduct) o coproduct",
                      labels, self.coassociative_on)
        rep.per_label("counit-left", "(id(x)counit) o coproduct = id",
                      labels, lambda l: self.counit_holds_on(l, left=True))
        rep.per_label("counit-right", "(counit(x)id) o coproduct = id",
                      labels, lambda l: self.counit_holds_on(l, left=False))

        # compatibility: coproduct and counit are algebra maps
        pairs = [(l1, l2) for l1 in labels for l2 in labels
                 if self.degree_of(l1) + self.degree_of(l2) <= n]

        def coproduct_failure(pair):
            lhs = self.coproduct(self.product_of_labels(*pair))
            rhs = self.t2_product(self.coproduct_of_label(pair[0]),
                                  self.coproduct_of_label(pair[1]))
            return None if lhs == rhs else witness_of(pair, lhs - rhs)

        def counit_failure(pair):
            lhs = self.counit(self.product_of_labels(*pair))
            rhs = self.counit_of_label(pair[0]) * self.counit_of_label(pair[1])
            return None if lhs == rhs else witness_of(pair, lhs)

        rep.first_failure("coproduct-multiplicative",
                          "coproduct(x*y) = coproduct(x)*coproduct(y)",
                          pairs, coproduct_failure)
        rep.first_failure("counit-multiplicative",
                          "counit(x*y) = counit(x)*counit(y)",
                          pairs, counit_failure)
        return rep

    def verify_antipode_axioms(self, S: GradedMap | None = None,
                               up_to: int | None = None) -> Report:
        """Check m o (S(x)id) o coproduct = unit o counit and its mirror."""
        if S is None:
            S = self.antipode()
        n = self.max_degree if up_to is None else up_to
        rep = Report(f"antipode-axioms({self.name})")
        labels = self.basis.labels_up_to(n)

        def left_ok(label):
            acc = Element.lincomb(
                self.basis, self.ring,
                ((c, self.product(S(self.element(a)), self.element(b)), None)
                 for (a, b), c in self.coproduct_of_label(label).coeffs.items()))
            return acc == self.unit_times_counit(self.element(label))

        def right_ok(label):
            acc = Element.lincomb(
                self.basis, self.ring,
                ((c, self.product(self.element(a), S(self.element(b))), None)
                 for (a, b), c in self.coproduct_of_label(label).coeffs.items()))
            return acc == self.unit_times_counit(self.element(label))

        rep.per_label("left-axiom",
                      "m o (S(x)id) o coproduct = unit o counit",
                      labels, left_ok)
        rep.per_label("right-axiom",
                      "m o (id(x)S) o coproduct = unit o counit",
                      labels, right_ok)
        return rep
