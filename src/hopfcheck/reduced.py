"""The reduced coproduct, primitivity, and their verification suites.

The reduced coproduct of an element c is

    delta(c) = coproduct(c) - c(x)1 - 1(x)c + counit(c) 1(x)1,

computed literally, on raw coefficients summed from the coproduct rows;
delta of a basis label, with whether it lies in the middle bidegrees,
and Ker delta (by :func:`delta_kernel`, the one routine for it) are
computed once and kept on the presentation, for every suite.
On a connected presentation it vanishes exactly on the span of the unit
together with the primitive elements; these facts are what the suites
below verify, by comparing elements.
"""

from __future__ import annotations

import itertools
import random

from .errors import UnsupportedRingError
from .gmod import Element, Tensor2Element, _check_ring, _nonzero, kernel_vectors
from .hopf import HopfPresentation
from .report import FAIL, NOT_CHECKED, PASS, Report, witness_of


def idbar(H: HopfPresentation, x: Element) -> Element:
    """Projection away from the unit line: x - counit(x) * 1."""
    return x - H.unit().scale(H.counit(x))


def reduced_coproduct(H: HopfPresentation, x: Element) -> Tensor2Element:
    """delta(x) by its literal formula, summed on the coproduct rows."""
    _check_ring(H.ring, x)
    ring, n, crows, terms = H.ring, H._n, H._crows, H._indexed(x)
    u, one, neg = H._index[H.unit_label], ring._one, ring._neg
    return H._labelled(H._sum(itertools.chain(
        ((c, zip(*crows[i][::3])) for i, c in terms),
        [(neg(c), ((i * n + u, one),)) for i, c in terms],
        [(neg(c), ((u * n + i, one),)) for i, c in terms],
        [(H.counit_value(x), ((u * n + u, one),))])), tensor=True)


def _label_delta(H: HopfPresentation, label: str):
    """:func:`_delta_facts` of a basis label, computed on first read and
    kept on H, as its structure rows are."""
    cache = vars(H).setdefault("_label_deltas", {})
    facts = cache.get(label)
    if facts is None:
        facts = cache[label] = _delta_facts(H, label)
    return facts


def _delta_facts(H: HopfPresentation, label: str):
    """delta of a basis label as the raw dict on a * n + b of its literal
    formula, read from the coproduct row; that delta boxed; and the witness
    of :func:`middle_bidegree_failure` on it, decided on the degree array.
    A row holds no zero, so only the three terms added to it can vanish."""
    ring, n, labels, deg = H.ring, H._n, H.basis.labels, H._deg
    i, u, zero = H._key(label), H._index[H.unit_label], ring._zero
    keys, _, _, raw = H._crows[i]
    acc, minus_one = dict(zip(keys, raw)), ring._neg(ring._one)
    for key, c in ((i * n + u, minus_one), (u * n + i, minus_one),
                   (u * n + u, H._eps.get(i, zero))):
        if key in acc:
            c = ring._add(acc[key], c)
        if c == zero:
            acc.pop(key, None)
        else:
            acc[key] = c
    delta = Tensor2Element._of(H.basis, ring, {
        (labels[k // n], labels[k % n]): v for k, v in acc.items()})
    d = deg[i]
    outside = ({(deg[k // n], deg[k % n]) for k in acc}
               - {(j, d - j) for j in range(1, d)})
    return acc, delta, witness_of(label, sorted(outside)) if outside else None


def reduced_coproduct_label(H: HopfPresentation, label: str) -> Tensor2Element:
    """delta of a basis label, computed once (:func:`_label_delta`)."""
    return _label_delta(H, label)[1]


def delta_grading_failure(H: HopfPresentation, label: str):
    """:func:`middle_bidegree_failure` of delta on a basis label, decided
    once beside it (:func:`_label_delta`)."""
    return _label_delta(H, label)[2]


def is_primitive(H: HopfPresentation, x: Element) -> bool:
    """coproduct(x) = x(x)1 + 1(x)x, compared term by term as raw dicts on
    a * n + b, the left side summed from the coproduct rows."""
    _check_ring(H.ring, x)
    ring, n, crows, terms = H.ring, H._n, H._crows, H._indexed(x)
    u, add, zero = H._index[H.unit_label], ring._add, ring._zero
    rhs = {}
    for i, c in terms:
        for key in (i * n + u, u * n + i):
            rhs[key] = add(rhs[key], c) if key in rhs else c
    lhs = H._sum((c, zip(*crows[i][::3])) for i, c in terms)
    return (all(v == rhs.get(k, zero) for k, v in lhs.items())
            and all(v == zero for k, v in rhs.items() if k not in lhs))


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
    u, n = H._index[H.unit_label], H._n

    def failure(label):
        lhs = _label_delta(H, label)[0]
        rhs = {k: c for k, c in zip(*H._crows[H._index[label]][::3])
               if k // n != u and k % n != u}
        if lhs == rhs:
            return None
        return witness_of(label, H._labelled(lhs, tensor=True)
                          - H._labelled(rhs, tensor=True))

    rep.first_failure("factorization", "delta = (idbar(x)idbar) o coproduct",
                      H.basis.labels, failure)
    return rep


def verify_delta_degree_bound(H: HopfPresentation) -> Report:
    """Support of delta on degree n sits in bidegrees (i, n-i), 1 <= i <= n-1."""
    rep = Report(f"delta-degree-bound({H.name})")
    rep.first_failure(
        "degree-bound", "delta(H_n) supported in degrees (i, n-i), 0 < i < n",
        H.basis.labels_between(1, H.max_degree),
        lambda l: delta_grading_failure(H, l))
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


def delta_kernel(basis, ring, delta: dict) -> list:
    """Ker delta over a field, for ``delta`` a dict from every label of
    ``basis`` to its image: :func:`kernel_vectors` of all labels, the one
    routine for a presentation's delta and an instance's.  A label with
    delta zero, such as a connected unit, is a kernel vector of its own."""
    return [Element(basis, ring, vec) for vec in kernel_vectors(
        {l: delta[l].coeffs for l in basis.labels}, basis.labels, ring)]


def delta_kernel_vectors(H: HopfPresentation):
    """:func:`delta_kernel` of the reduced coproduct of a connected H (a
    field only), computed once and kept on H, for every suite."""
    if not H.ring.is_field:
        raise UnsupportedRingError(f"kernel of delta needs a field, got {H.ring}")
    H.require_connected()
    if "_delta_kernel" not in vars(H):
        H._delta_kernel = delta_kernel(H.basis, H.ring, {
            l: reduced_coproduct_label(H, l) for l in H.basis.labels})
    return H._delta_kernel
