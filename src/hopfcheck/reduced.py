"""The reduced coproduct, primitivity, and their verification suites.

The reduced coproduct of an element c is

    delta(c) = coproduct(c) - c(x)1 - 1(x)c + counit(c) 1(x)1,

computed literally.  On a connected presentation it vanishes exactly on
the span of the unit together with the primitive elements; these facts
are what the suites below verify.
"""

from __future__ import annotations

import random

from .errors import UnsupportedRingError
from .gmod import Element, Tensor2Element, kernel_vectors
from .hopf import HopfPresentation
from .report import FAIL, NOT_CHECKED, PASS, Report, witness_of


def idbar(H: HopfPresentation, x: Element) -> Element:
    """Projection away from the unit line: x - counit(x) * 1."""
    return x - H.unit().scale(H.counit(x))


def reduced_coproduct(H: HopfPresentation, x: Element) -> Tensor2Element:
    one = H.unit()
    eps = H.counit(x)
    return (H.coproduct(x) - x.tensor(one) - one.tensor(x)
            + one.tensor(one).scale(eps))


def reduced_coproduct_label(H: HopfPresentation, label: str) -> Tensor2Element:
    return reduced_coproduct(H, H.element(label))


def is_primitive(H: HopfPresentation, x: Element) -> bool:
    one = H.unit()
    return H.coproduct(x) == x.tensor(one) + one.tensor(x)


def random_elements(H: HopfPresentation, count: int, seed: int,
                    max_degree: int | None = None):
    """Reproducible small combinations with coefficients in {-2..2}."""
    rng = random.Random(seed)
    labels = H.basis.labels_up_to(
        H.max_degree if max_degree is None else max_degree)
    out = []
    for _ in range(count):
        x = H.zero()
        for label in rng.sample(labels, k=min(3, len(labels))):
            x = x + H.element(label).scale(H.ring.embed(rng.randint(-2, 2)))
        out.append(x)
    return out


def middle_bidegree_failure(label: str, t: Tensor2Element):
    """None when ``t`` is supported in the bidegrees (i, n-i), 0 < i < n,
    for n the degree of ``label``; else the witness naming the bidegrees
    outside them."""
    n = t.basis.degree_of(label)
    outside = t.bidegree_support() - {(i, n - i) for i in range(1, n)}
    return witness_of(label, sorted(outside)) if outside else None


def verify_delta_factorization(H: HopfPresentation,
                               up_to: int | None = None) -> Report:
    """delta = (idbar (x) idbar) o coproduct on every basis label."""
    n = H.max_degree if up_to is None else up_to
    rep = Report(f"delta-factorization({H.name})")
    ib = lambda x: idbar(H, x)

    def failure(label):
        lhs = reduced_coproduct_label(H, label)
        rhs = Tensor2Element.lincomb(
            H.basis, H.ring,
            ((c, ib(H.element(a)), ib(H.element(b)))
             for (a, b), c in H.coproduct_of_label(label).coeffs.items()))
        return None if lhs == rhs else witness_of(label, lhs - rhs)

    rep.first_failure("factorization", "delta = (idbar(x)idbar) o coproduct",
                      H.basis.labels_up_to(n), failure)
    return rep


def verify_delta_degree_bound(H: HopfPresentation,
                              up_to: int | None = None) -> Report:
    """Support of delta on degree n sits in bidegrees (i, n-i), 1 <= i <= n-1."""
    n = H.max_degree if up_to is None else up_to
    rep = Report(f"delta-degree-bound({H.name})")
    rep.first_failure(
        "degree-bound", "delta(H_n) supported in degrees (i, n-i), 0 < i < n",
        H.basis.labels_between(1, n),
        lambda l: middle_bidegree_failure(l, reduced_coproduct_label(H, l)))
    return rep


def verify_prim_characterization(H: HopfPresentation, seed: int = 0,
                                 up_to: int | None = None) -> Report:
    """Primitive <=> killed by both delta and the counit; kernel side over fields."""
    n = H.max_degree if up_to is None else up_to
    rep = Report(f"prim-characterization({H.name})")

    vectors = [H.element(l) for l in H.basis.labels_up_to(n)]
    vectors += random_elements(H, count=8, seed=seed, max_degree=n)

    def membership_failure(x):
        lhs = is_primitive(H, x)
        rhs = reduced_coproduct(H, x).is_zero() and H.counit(x).is_zero()
        return None if lhs == rhs else witness_of(x)

    rep.first_failure("membership",
                      "primitive(x) <=> delta(x) = 0 and counit(x) = 0",
                      vectors, membership_failure)
    rep.first_failure(
        "primitive-counit", "counit vanishes on primitives", vectors,
        lambda x: witness_of(x, H.counit(x))
        if is_primitive(H, x) and not H.counit(x).is_zero() else None)

    one_in_kernel = reduced_coproduct(H, H.unit()).is_zero()
    rep.add("unit-in-kernel", "delta(1) = 0",
            PASS if one_in_kernel else FAIL,
            None if one_in_kernel else witness_of(H.unit_label))

    if not H.ring.is_field:
        rep.add("kernel-primitive",
                "over a field: Ker delta on positive degrees is primitive",
                NOT_CHECKED)
        return rep

    def kernel_of_degree(d):
        labels = H.basis.labels_of_degree(d)
        columns = {l: reduced_coproduct_label(H, l).coeffs for l in labels}
        return kernel_vectors(columns, labels, H.ring)

    rep.first_failure(
        "kernel-primitive",
        "over a field: Ker delta on positive degrees is primitive",
        (Element(H.basis, H.ring, vec)
         for d in range(1, n + 1) for vec in kernel_of_degree(d)),
        lambda x: None if is_primitive(H, x) else witness_of(x))
    return rep


def delta_kernel_vectors(H: HopfPresentation, up_to: int | None = None):
    """Spanning vectors of Ker delta across all degrees <= up_to (field only)."""
    n = H.max_degree if up_to is None else up_to
    labels = H.basis.labels_up_to(n)
    columns = {l: reduced_coproduct_label(H, l).coeffs for l in labels}
    if not H.ring.is_field:
        raise UnsupportedRingError(f"kernel of delta needs a field, got {H.ring}")
    return [Element(H.basis, H.ring, v)
            for v in kernel_vectors(columns, labels, H.ring)]
