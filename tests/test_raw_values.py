"""Sparse elements hold the ring's canonical raw values, never boxes.

Every coefficient that the package stores or returns inside an element
(structure tables, antipodes, map images, sums, degree-block steps) and
every kernel vector entry is a raw value that ``ring._canon`` leaves as it
is; ``RingElement`` boxes are made only at the boundary (``coeff``,
``repr``, the counit).
"""

import itertools
from fractions import Fraction

import pytest

from hopfcheck.gmod import (DegreeBlock, Element, GradedBasis, GradedMap,
                            kernel_vectors)
from hopfcheck.reduced import delta_kernel_vectors, reduced_coproduct_label
from hopfcheck.rings import QQ, ZZ, ModRing, PolyQuotientRing, RingElement
from hopfcheck.zoo import build_algebra

RINGS = [ZZ, QQ, ModRing(5), ModRing(6), PolyQuotientRing(ZZ, [1, 1, 1]),
         PolyQuotientRing(QQ, [1, 0, 1], irreducible=True)]


def assert_raw(ring, coeffs):
    for value in coeffs.values():
        assert not isinstance(value, RingElement)
        canon = ring._canon(value)
        assert value == canon and type(value) is type(canon)
        assert value != ring._zero


@pytest.mark.parametrize("ring", RINGS, ids=repr)
@pytest.mark.parametrize("name", ["abc", "tensor", "shuffle", "fqsym"])
def test_elements_hold_canonical_raw_values(name, ring):
    H = build_algebra(name, ring, 3)
    raw = lambda x: assert_raw(ring, x.coeffs)
    labels = H.basis.labels
    for l1 in labels:
        raw(H.coproduct_of_label(l1))
        raw(reduced_coproduct_label(H, l1))
        for l2 in H.basis.labels_up_to(3 - H.degree_of(l1)):
            raw(H.product_of_labels(l1, l2))

    S = H.antipode()
    S2 = S.compose(S)
    g = GradedMap.identity(H.basis, ring) - S2
    for f in (S, H.antipode_oracle(), S2, g):
        for image in f.images.values():
            raw(image)

    # lincomb results: sums, negation, scaling, tensors, map applications
    c = QQ.element(Fraction(1, 2)) if ring is QQ else ring.embed(3)
    x = H.element(labels[1]).scale(c) + H.unit()
    for y in (x + x, x - x, -x, x.scale(c), x.tensor(x), S(x), S2(x),
              H.product(x, x), H.coproduct(x), H.t2_product(
                  H.coproduct(x), H.coproduct(x)),
              S.apply_tensor(S2, H.coproduct(x)),
              Element.lincomb(H.basis, ring, ((c, x, None),))):
        raw(y)
    boxed_c = Element.lincomb(H.basis, ring, ((c, x, None),))
    assert boxed_c == x.scale(c) and hash(boxed_c) == hash(x.scale(c))

    # degree-block steps, also over Q with a block scale above 1
    for f in (g, g.scale(c)):
        for d in range(H.max_degree + 1):
            block = DegreeBlock(f, d)
            for k, level in enumerate(itertools.islice(block.levels(), 4)):
                for entry in level:
                    raw(block.box(k, *entry))

    if ring.is_field:
        columns = {l: reduced_coproduct_label(H, l).coeffs for l in labels}
        vectors = kernel_vectors(columns, labels, ring)
        assert vectors
        for vector in vectors:
            assert_raw(ring, vector)


@pytest.mark.parametrize("name", ["fqsym", "tensor"])
def test_integral_rationals_are_ints(name):
    """Every zoo structure constant is an integer, so over ``Q`` the tables,
    S, S^2 and a kernel basis of the reduced coproduct hold only ints."""
    H = build_algebra(name, QQ, 4)
    labels = H.basis.labels
    elements = [H.coproduct_of_label(l) for l in labels]
    elements += [H.product_of_labels(l1, l2) for l1 in labels
                 for l2 in H.basis.labels_up_to(4 - H.degree_of(l1))]
    for f in (H.antipode(), H.antipode_squared()):
        elements += f.images.values()
    kernel = delta_kernel_vectors(H)
    assert kernel
    for x in elements + kernel:
        assert {type(c) for c in x.coeffs.values()} <= {int}


def test_scaled_block_steps_return_to_ints():
    """g(x) = 2y, g(y) = x/2 scales the block by 2, and g^2(x) = x is
    stored as 4x / 2^2: the boxed step holds the int 1."""
    B = GradedBasis([["u"], ["x", "y"]])
    vector = lambda l, c: Element(B, QQ, {l: c})
    g = GradedMap(B, QQ, {"u": vector("u", 0), "x": vector("y", 2),
                          "y": vector("x", Fraction(1, 2))})
    block = DegreeBlock(g, 1)
    assert block.scale == 2
    steps = [block.box(k, *level[0]).coeffs
             for k, level in enumerate(itertools.islice(block.levels(), 5))]
    assert steps == [{"x": 1}, {"y": 2}, {"x": 1}, {"y": 2}, {"x": 1}]
    for coeffs in steps:
        assert_raw(QQ, coeffs)
