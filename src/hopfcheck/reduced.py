"""The reduced coproduct, primitivity, and their verification suites.

The reduced coproduct of an element c is

    delta(c) = coproduct(c) - c(x)1 - 1(x)c + counit(c) 1(x)1,

computed literally, on raw coefficients; delta of a basis label and Ker
delta are computed once and kept on the presentation, for every suite.
On a connected presentation it vanishes exactly on the span of the unit
together with the primitive elements; these facts are what the suites
below verify, by comparing elements.
"""

from __future__ import annotations

import itertools
import random

from .errors import UnsupportedRingError
from .gmod import Element, Tensor2Element, _nonzero, kernel_vectors
from .hopf import HopfPresentation
from .report import FAIL, NOT_CHECKED, PASS, Report, witness_of


def idbar(H: HopfPresentation, x: Element) -> Element:
    """Projection away from the unit line: x - counit(x) * 1."""
    return x - H.unit().scale(H.counit(x))


def reduced_coproduct(H: HopfPresentation, x: Element) -> Tensor2Element:
    ring, one, u = H.ring, H.ring._one, H.unit_label
    ends = [((l, u), c) for l, c in x.coeffs.items()]
    ends += [((u, l), c) for l, c in x.coeffs.items()]
    return Tensor2Element._of(H.basis, ring, _nonzero(ring, H._sum((
        (one, H.coproduct(x).coeffs.items()), (ring._neg(one), ends),
        (H.counit_value(x), (((u, u), one),))))))


def reduced_coproduct_label(H: HopfPresentation, label: str) -> Tensor2Element:
    """delta of a basis label, computed on first read and cached on H, as
    its structure tables are."""
    cache = vars(H).setdefault("_reduced_coproduct_cache", {})
    delta = cache.get(label)
    if delta is None:
        delta = cache[label] = reduced_coproduct(H, H.element(label))
    return delta


def is_primitive(H: HopfPresentation, x: Element) -> bool:
    one = H.unit()
    return H.coproduct(x) == x.tensor(one) + one.tensor(x)


def random_elements(H: HopfPresentation, count: int, seed: int):
    """Reproducible small combinations with coefficients in {-2..2}."""
    rng = random.Random(seed)
    labels = H.basis.labels
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


def verify_delta_factorization(H: HopfPresentation) -> Report:
    """delta = (idbar (x) idbar) o coproduct on every basis label of a
    connected H, where idbar kills the unit and fixes the other labels:
    the right side is the coproduct's terms with no unit factor.  A
    failing label's witness is the difference of the two sides."""
    H.require_connected()
    rep = Report(f"delta-factorization({H.name})")
    u = H.unit_label

    def failure(label):
        lhs = reduced_coproduct_label(H, label)
        rhs = Tensor2Element._of(H.basis, H.ring, {
            (a, b): c for (a, b), c in H.coproduct_of_label(label).coeffs.items()
            if u != a and u != b})
        return None if lhs == rhs else witness_of(label, lhs - rhs)

    rep.first_failure("factorization", "delta = (idbar(x)idbar) o coproduct",
                      H.basis.labels, failure)
    return rep


def verify_delta_degree_bound(H: HopfPresentation) -> Report:
    """Support of delta on degree n sits in bidegrees (i, n-i), 1 <= i <= n-1."""
    rep = Report(f"delta-degree-bound({H.name})")
    rep.first_failure(
        "degree-bound", "delta(H_n) supported in degrees (i, n-i), 0 < i < n",
        H.basis.labels_between(1, H.max_degree),
        lambda l: middle_bidegree_failure(l, reduced_coproduct_label(H, l)))
    return rep


def verify_prim_characterization(H: HopfPresentation, seed: int = 0) -> Report:
    """Primitive <=> killed by both delta and the counit; kernel side over fields."""
    rep = Report(f"prim-characterization({H.name})")

    labels = H.basis.labels
    randoms = random_elements(H, count=8, seed=seed)
    vectors = [H.element(l) for l in labels] + randoms
    deltas = itertools.chain((reduced_coproduct_label(H, l) for l in labels),
                             (reduced_coproduct(H, x) for x in randoms))
    # each vector's primitivity, tested once for both checks below
    primitive = [is_primitive(H, x) for x in vectors]

    def membership_failure(item):
        x, delta, lhs = item
        rhs = delta.is_zero() and H.counit(x).is_zero()
        return None if lhs == rhs else witness_of(x)

    rep.first_failure("membership",
                      "primitive(x) <=> delta(x) = 0 and counit(x) = 0",
                      zip(vectors, deltas, primitive), membership_failure)
    rep.first_failure(
        "primitive-counit", "counit vanishes on primitives",
        zip(vectors, primitive),
        lambda item: witness_of(item[0], H.counit(item[0]))
        if item[1] and not H.counit(item[0]).is_zero() else None)

    one_in_kernel = reduced_coproduct_label(H, H.unit_label).is_zero()
    rep.add("unit-in-kernel", "delta(1) = 0",
            PASS if one_in_kernel else FAIL,
            None if one_in_kernel else witness_of(H.unit_label))

    statement = "over a field: Ker delta on positive degrees is primitive"
    if not H.ring.is_field:
        rep.add("kernel-primitive", statement, NOT_CHECKED,
                f"ring {H.ring} is not a field")
        return rep
    # the unit heads the kernel vectors exactly when delta(1) = 0
    rep.first_failure(
        "kernel-primitive", statement, delta_kernel_vectors(H)[one_in_kernel:],
        lambda x: None if is_primitive(H, x) else witness_of(x))
    return rep


def delta_kernel_vectors(H: HopfPresentation):
    """Spanning vectors of Ker delta on a connected H (field only), by one
    elimination per presentation, kept on H: the unit when delta(1) = 0,
    then those of the positive degrees.  No positive label's delta has the
    key (1, 1), so this is what eliminating every label's column gives."""
    if not H.ring.is_field:
        raise UnsupportedRingError(f"kernel of delta needs a field, got {H.ring}")
    H.require_connected()
    if "_delta_kernel" not in vars(H):
        positive = H.basis.labels_between(1, H.max_degree)
        columns = {l: reduced_coproduct_label(H, l).coeffs for l in positive}
        unit = [] if reduced_coproduct_label(H, H.unit_label).coeffs else [H.unit()]
        H._delta_kernel = unit + [Element(H.basis, H.ring, vec) for vec
                                  in kernel_vectors(columns, positive, H.ring)]
    return H._delta_kernel
