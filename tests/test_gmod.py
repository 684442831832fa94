"""Graded free modules, sparse elements, tensor squares, graded maps."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfcheck.errors import StructuralError, UnsupportedRingError
from hopfcheck.gmod import (Element, GradedBasis, GradedMap, Tensor2Element,
                            Tensor2Map, kernel_vectors,
                            tensor_sum_vanishes)
from hopfcheck.rings import QQ, ZZ, ModRing, PolyQuotientRing, RingElement

B = GradedBasis([["u"], ["x", "y"], ["xx", "xy", "yx", "yy"]])


def vec(ring, **coeffs):
    return Element(B, ring, {l: ring.embed(c) for l, c in coeffs.items()})


def rand_elements(ring):
    labels = list(B.labels)
    return st.lists(
        st.tuples(st.sampled_from(labels),
                  st.integers(min_value=-5, max_value=5)),
        max_size=4).map(
            lambda pairs: sum(
                (Element.basis_vector(B, ring, l).scale(ring.embed(c))
                 for l, c in pairs),
                Element.zero(B, ring)))


def rand_maps(ring):
    labels = list(B.labels)

    def build(rows):
        images = {}
        for l, row in zip(labels, rows):
            images[l] = Element(
                B, ring,
                {m: ring.embed(c) for m, c in zip(labels, row)
                 if B.degree_of(m) == B.degree_of(l)})
        return GradedMap(B, ring, images)

    return st.lists(
        st.lists(st.integers(min_value=-3, max_value=3),
                 min_size=len(labels), max_size=len(labels)),
        min_size=len(labels), max_size=len(labels)).map(build)


# --- basis -----------------------------------------------------------------

def test_basis_bookkeeping():
    assert B.max_degree == 2
    assert B.degree_of("xy") == 2
    assert B.labels_of_degree(1) == ("x", "y")
    assert B.rank(2) == 4
    assert B.labels_up_to(1) == ("u", "x", "y")
    assert "xy" in B and "zz" not in B


def test_duplicate_label_rejected():
    with pytest.raises(StructuralError):
        GradedBasis([["u"], ["x", "x"]])


def test_unknown_label_rejected():
    with pytest.raises(StructuralError):
        B.degree_of("nope")


# --- elements --------------------------------------------------------------

def test_element_arithmetic():
    a = vec(ZZ, x=2, y=-1)
    b = vec(ZZ, y=1, xy=3)
    assert (a + b).coeffs == vec(ZZ, x=2, xy=3).coeffs
    assert a - a == Element.zero(B, ZZ)
    assert (-a) + a == Element.zero(B, ZZ)
    assert a.scale(ZZ.embed(0)).is_zero()
    assert a.coeff("x") == ZZ.embed(2)
    assert a.coeff("u") == ZZ.zero
    assert a.degrees() == {1}


def test_zero_pruning():
    a = vec(ZZ, x=1) + vec(ZZ, x=-1)
    assert a.coeffs == {}
    assert a.is_zero()


def test_tensor_of_elements():
    a = vec(ZZ, x=2)
    b = vec(ZZ, y=3, u=1)
    t = a.tensor(b)
    assert t.coeffs == {("x", "y"): ZZ.embed(6), ("x", "u"): ZZ.embed(2)}
    assert t.bidegree_support() == {(1, 1), (1, 0)}


# --- maps ------------------------------------------------------------------

def swap_map(ring):
    images = {l: Element.basis_vector(B, ring, l) for l in B.labels}
    images["x"], images["y"] = (Element.basis_vector(B, ring, "y"),
                                Element.basis_vector(B, ring, "x"))
    images["xy"], images["yx"] = (Element.basis_vector(B, ring, "yx"),
                                  Element.basis_vector(B, ring, "xy"))
    return GradedMap(B, ring, images)


def test_map_application_is_linear():
    s = swap_map(ZZ)
    a = vec(ZZ, x=2, y=-1, xy=4)
    assert s(a) == vec(ZZ, y=2, x=-1, yx=4)


def test_map_must_cover_all_labels():
    with pytest.raises(StructuralError):
        GradedMap(B, ZZ, {"u": Element.basis_vector(B, ZZ, "u")})


def test_map_must_preserve_degree():
    images = {l: Element.basis_vector(B, ZZ, l) for l in B.labels}
    images["x"] = Element.basis_vector(B, ZZ, "xx")
    with pytest.raises(StructuralError):
        GradedMap(B, ZZ, images)


def test_identity_and_zero():
    i = GradedMap.identity(B, QQ)
    z = GradedMap.zero(B, QQ)
    a = vec(QQ, x=3, yy=2)
    assert i(a) == a
    assert z(a).is_zero()
    assert (i - i) == z


def test_negative_power_rejected():
    with pytest.raises(StructuralError):
        GradedMap.identity(B, ZZ).power(-1)


@given(f=rand_maps(ModRing(7)), g=rand_maps(ModRing(7)),
       h=rand_maps(ModRing(7)), x=rand_elements(ModRing(7)))
def test_composition_associative_and_linear(f, g, h, x):
    assert f.compose(g).compose(h) == f.compose(g.compose(h))
    assert f.compose(g + h)(x) == f(g(x)) + f(h(x))


# a basis with an empty degree, for the packed block product of compose
BP = GradedBasis([["1"], [], ["x", "y", "z"], ["p", "q", "r", "s"]])
CELLS = [(l, m) for labels in BP.degrees for l in labels for m in labels]


def block_map(ring, values):
    """The map on BP whose entry (l, m), the coefficient of m in the image
    of l, is the value at the position of (l, m) in CELLS."""
    images = {l: {} for l in BP.labels}
    for (l, m), v in zip(CELLS, values):
        images[l][m] = v
    return GradedMap(BP, ring, {l: Element(BP, ring, c)
                                for l, c in images.items()})


def applied(f, g):
    """f o g label by label, {l: f(g(e_l))}: the reference for compose."""
    return GradedMap(BP, f.ring, {l: f(g(Element.basis_vector(BP, f.ring, l)))
                                  for l in BP.labels})


def typed_value(v):
    """v with its type, and a tuple's entries with theirs."""
    return (type(v), tuple(map(typed_value, v)) if type(v) is tuple else v)


def typed(f):
    """The entries of f with their types, so a non-canonical value shows."""
    return {l: {k: typed_value(v) for k, v in img.coeffs.items()}
            for l, img in f.images.items()}


def maps_over(entries):
    """Values for block_map: each entry 0 or drawn from ``entries``, 0
    often enough that both dense and sparse blocks come up."""
    return st.lists(st.one_of(st.just(0), entries),
                    min_size=len(CELLS), max_size=len(CELLS))


ZQ3 = PolyQuotientRing(ZZ, [1, 1, 1])
QQ_Q = PolyQuotientRing(QQ, [1, 0, 1])
QHALF = PolyQuotientRing(QQ, [Fraction(1, 2), 0, 1])


@pytest.mark.parametrize("ring, entries", [
    (ZZ, st.integers(-2**100, 2**100)),
    (QQ, st.fractions(-50, 50, max_denominator=12)),
    (ModRing(6), st.integers(0, 5)),
    (ModRing(7), st.integers(-30, 30)),
    (ZQ3, st.tuples(st.integers(-2**70, 2**70), st.integers(-2**70, 2**70))),
    (QQ_Q, st.tuples(*[st.fractions(-9, 9, max_denominator=6)] * 2)),
], ids=["Z", "Q", "Z/6", "Z/7", "Z[q]/(1,1,1)", "Q[q]/(1,0,1)"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compose_matches_per_label_application(ring, entries, data):
    f = block_map(ring, data.draw(maps_over(entries)))
    g = block_map(ring, data.draw(maps_over(entries)))
    assert typed(f.compose(g)) == typed(applied(f, g))


@pytest.mark.parametrize("ring", [ZZ, QQ, ModRing(6), ModRing(7)], ids=str)
def test_compose_with_a_zero_map(ring):
    dense = block_map(ring, [1 + i % 4 for i in range(len(CELLS))])
    zero = GradedMap.zero(BP, ring)
    for f, g in ((dense, zero), (zero, dense), (zero, zero)):
        assert typed(f.compose(g)) == typed(applied(f, g)) == typed(zero)


@pytest.mark.parametrize("bound", [2**7 - 1, 2**15 - 1, 2**63 - 1, 2**64 - 1])
def test_packed_digit_at_the_width_bound(bound):
    """f(x) = f(y) = x - y and g(x) = -g(y) = a x + b y with a + b = bound:
    every digit of f o g on degree 1 is +-bound = max|f| * max l1-norm of
    g, which fills its slot exactly for bounds 2**(8k - 1) - 1.  A third
    label z, with f(z) = g(z) = 0, makes the block large enough to pack,
    and ``compose`` maps g's images as one batch of f's packed block."""
    basis = GradedBasis([["1"], ["x", "y", "z"]])
    a, b = bound // 3, bound - bound // 3

    def image(c):
        return Element(basis, ZZ, c)
    f = GradedMap(basis, ZZ, {"1": image({"1": 1}), "x": image({"x": 1, "y": -1}),
                              "y": image({"x": 1, "y": -1}), "z": image({})})
    g = GradedMap(basis, ZZ, {"1": image({"1": 1}), "x": image({"x": a, "y": b}),
                              "y": image({"x": -a, "y": -b}), "z": image({})})
    fg = f.compose(g)
    assert f._blocks[1].packed is not None  # the block compose kept
    assert fg.images == {
        "1": image({"1": 1}), "x": image({"x": bound, "y": -bound}),
        "y": image({"x": -bound, "y": bound}), "z": image({})}


@pytest.mark.parametrize("bound", [2**7 - 1, 2**15 - 1, 2**63 - 1, 2**64 - 1])
@pytest.mark.parametrize("ring", [ZQ3, QQ_Q, QHALF], ids=repr)
def test_packed_quotient_digit_at_the_width_bound(ring, bound):
    """f(x) = f(y) = q x - q y and g(x) = -g(y) = a q x + b q y with
    a + b = bound (f(z) = g(z) = 0): f o g on degree 1 is +-bound q^2 mod
    f, the sum of a and b times the packed columns of q f(x) and q f(y).
    Over ``Z[q]/(1,1,1)`` and ``Q[q]/(1,0,1)`` their entries are 0 and +-1,
    so a digit is +-bound = max|entry| * max l1-norm of g, which fills
    its slot exactly for bounds 2**(8k - 1) - 1.  Over ``Q[q]/(1/2,0,1)``
    q^2 = -1/2, so those columns hold 1/2 and pack only under the block's
    scale 2, taken over every q^s f(x_j) mod f."""
    basis = GradedBasis([["1"], ["x", "y", "z"]])
    a, b = bound // 3, bound - bound // 3

    def image(c):
        return Element(basis, ring, {l: ring.element(v) for l, v in c.items()})
    f = GradedMap(basis, ring, {"1": image({"1": [1]}),
                                "x": image({"x": [0, 1], "y": [0, -1]}),
                                "y": image({"x": [0, 1], "y": [0, -1]}),
                                "z": image({})})
    g = GradedMap(basis, ring, {"1": image({"1": [1]}),
                                "x": image({"x": [0, a], "y": [0, b]}),
                                "y": image({"x": [0, -a], "y": [0, -b]}),
                                "z": image({})})
    top = [0, 0, bound]  # bound q^2
    fg = f.compose(g)
    assert f._blocks[1].packed is not None  # the block compose kept
    assert fg.images == {
        "1": image({"1": [1]}), "x": image({"x": top, "y": [-c for c in top]}),
        "y": image({"x": [-c for c in top], "y": top}), "z": image({})}


@pytest.mark.parametrize("modulus", [[Fraction(1, 2), 0, 1],
                                     [1, 0, Fraction(1, 2), 1]], ids=str)
def test_packed_compose_over_a_non_integer_modulus(modulus):
    """Reducing by q^2 + 1/2, or by q^3 + q^2/2 + 1, brings denominators
    into q^s g(x_j) mod f, and the block's scale clears them too, so a
    dense block over such a ring packs and composes exactly, with scaled
    (1/3) and integral entries."""
    ring = PolyQuotientRing(QQ, modulus)
    for first in (Fraction(1, 3), 2):  # scaled, and integral
        f = block_map(ring, [(first, i % 3, 1 - i % 2) for i in range(len(CELLS))])
        assert typed(f.compose(f)) == typed(applied(f, f))
        assert f.block(2).packed is not None


@given(f=rand_maps(ModRing(5)), a=st.integers(0, 3), b=st.integers(0, 3))
def test_power_additivity(f, a, b):
    assert f.power(a + b) == f.power(a).compose(f.power(b))


def test_power_composes_k_minus_one_times(monkeypatch):
    f = GradedMap.identity(B, ZZ).scale(3)
    calls = []
    compose = GradedMap.compose
    monkeypatch.setattr(GradedMap, "compose",
                        lambda self, other: calls.append(1) or compose(self, other))
    assert f.power(0) == GradedMap.identity(B, ZZ) and not calls
    assert f.power(1) is f and not calls
    assert f.power(3) == GradedMap.identity(B, ZZ).scale(27)
    assert len(calls) == 2


def test_apply_tensor_matches_materialized():
    f = swap_map(QQ)
    g = GradedMap.identity(B, QQ).scale(QQ.embed(3))
    t = vec(QQ, x=1).tensor(vec(QQ, y=2, u=5))
    fg = Tensor2Map(B, QQ, {(a, b): f.images[a].tensor(g.images[b])
                            for a in B.labels for b in B.labels})
    # f(x) = y and g = 3 id
    expected = Tensor2Element(B, QQ, {("y", "y"): QQ.embed(6),
                                      ("y", "u"): QQ.embed(15)})
    assert f.apply_tensor(g, t) == expected
    assert fg(t) == expected


# --- operators on the tensor square ---------------------------------------

TENSOR_RINGS = [ZZ, QQ, ModRing(5), ModRing(6), PolyQuotientRing(ZZ, [1, 1, 1]),
                PolyQuotientRing(QQ, [1, 0, 1]),
                PolyQuotientRing(QQ, [Fraction(1, 2), 0, 1])]


def ring_values(ring):
    """Few small nonzero boxed values of ``ring``, so that entries often
    repeat; 2 and 3 are zero divisors of Z/6."""
    values = [ring.embed(n) for n in (1, -1, 2, 3)]
    if isinstance(ring, PolyQuotientRing):
        values.append(ring.element([0, 1]))
        if ring.base == QQ:
            values.append(ring.element([Fraction(1, 2), Fraction(-2, 3)]))
    return values


# two labels of degree 0, so that random rows often share a key
SMALL = GradedBasis([["x", "y"], ["z"]])


def naive_vanishes(terms, basis=SMALL):
    """Whether sum_i c_i (A_i (x) B_i) is zero, evaluated on every basis
    pair x (x) y with boxed arithmetic."""
    for x, y in itertools.product(basis.labels, repeat=2):
        acc = {}
        for c, f, g in terms:
            fx, gy = f.images[x], g.images[y]
            for a, b in itertools.product(fx.coeffs, gy.coeffs):
                acc[a, b] = acc.get((a, b), c.ring.zero) + (
                    c * fx.coeff(a) * gy.coeff(b))
        if any(not v.is_zero() for v in acc.values()):
            return False
    return True


@st.composite
def tensor_terms(draw):
    """A ring and terms (c, A, B) of small random maps.  Each drawn term
    may come with a second one that cancels it on every pair, (-c, A, B),
    or on part of the pairs: (-c, A', B) or (-c, A, B') with A' = A, or
    B' = B, on the labels after a cut between two labels and zero before
    it.  A row key (x, a) before the cut then fails while a later (x', a)
    passes."""
    ring = draw(st.sampled_from(TENSOR_RINGS))
    values = ring_values(ring)
    value = st.sampled_from([ring.zero] + values)

    def a_map():
        return GradedMap(SMALL, ring, {
            l: Element(SMALL, ring, {m: draw(value) for m in
                                     SMALL.labels_of_degree(SMALL.degree_of(l))})
            for l in SMALL.labels})

    def near(f):
        keep = SMALL.labels[draw(st.integers(1, len(SMALL.labels) - 1)):]
        zero = Element.zero(SMALL, ring)
        return GradedMap(SMALL, ring, {l: f.images[l] if l in keep else zero
                                       for l in SMALL.labels})

    terms = []
    for _ in range(draw(st.integers(1, 3))):
        c, f, g = draw(st.sampled_from(values)), a_map(), a_map()
        terms.append((c, f, g))
        partner = draw(st.sampled_from(["none", "all", "left", "right"]))
        if partner != "none":
            terms.append((-c, near(f) if partner == "left" else f,
                          near(g) if partner == "right" else g))
    return ring, terms


@settings(max_examples=300)
@given(tensor_terms())
def test_tensor_sum_vanishes_matches_pairwise_evaluation(case):
    ring, terms = case
    raw = [(ring._value(c), f, g) for c, f, g in terms]
    assert tensor_sum_vanishes(SMALL, ring, raw) == naive_vanishes(terms)


@pytest.mark.parametrize("ring", TENSOR_RINGS, ids=str)
def test_tensor_sum_vanishes_on_a_basis_with_an_empty_degree(ring):
    """A degree with no label, as a free spec whose generators all have
    degree 2 or more leaves degree 1, is skipped, not divided by."""
    gappy = GradedBasis([["1"], [], ["x"]])
    ident = GradedMap.identity(gappy, ring)
    two = GradedMap(gappy, ring, {"1": ident.images["1"],
                                  "x": ident.images["x"].scale(ring.embed(2))})
    one, minus = ring._one, ring._neg(ring._one)
    cases = [[(one, ident, ident), (minus, ident, ident)],
             [(one, two, ident), (minus, ident, two)],
             [(one, two, two), (minus, ident, ident)],
             [(one, ident, two), (minus, ident, ident)]]
    for raw in cases:
        boxed = [(RingElement(ring, c), f, g) for c, f, g in raw]
        assert tensor_sum_vanishes(gappy, ring, raw) == naive_vanishes(boxed, gappy)


def test_tensor_sum_vanishes_on_zero_divisors():
    """2 (3 id (x) id) = 0 over Z/6, though neither factor is zero."""
    Z6 = ModRing(6)
    ident = GradedMap.identity(B, Z6)
    triple = ident.scale(3)
    assert tensor_sum_vanishes(B, Z6, [(2, triple, ident)])
    assert not tensor_sum_vanishes(B, Z6, [(1, triple, ident)])


def test_tensor_sum_vanishes_keys_rows_by_label_and_image():
    """(A - A') (x) id with A(x) = A'(x) = x, A(y) = x and A'(y) = 0: the
    row of (x, x) cancels, that of (y, x) does not."""
    ident = GradedMap.identity(B, ZZ)
    x = Element.basis_vector(B, ZZ, "x")
    A = GradedMap(B, ZZ, dict(ident.images, y=x))
    A_prime = GradedMap(B, ZZ, dict(ident.images, y=Element.zero(B, ZZ)))
    assert not tensor_sum_vanishes(B, ZZ, [(1, A, ident), (-1, A_prime, ident)])


def test_tensor_sum_vanishes_rejects_other_modules():
    with pytest.raises(StructuralError):
        tensor_sum_vanishes(B, QQ, [(1, GradedMap.identity(B, QQ),
                                     GradedMap.identity(B, ZZ))])


# --- kernels ---------------------------------------------------------------

def unboxed(columns):
    """Raw copies of boxed columns, the input of ``kernel_vectors``."""
    return {k: {r: v.value for r, v in column.items()}
            for k, column in columns.items()}


def test_kernel_simple():
    # columns of the map (x, y) -> (x + y) viewed in a 1-dim target "x"
    columns = {"x": {"t": QQ.one}, "y": {"t": QQ.one}}
    vecs = kernel_vectors(unboxed(columns), ["x", "y"], QQ)
    assert len(vecs) == 1
    (v,) = vecs
    assert QQ.element(v["x"]) + QQ.element(v["y"]) == QQ.zero


def test_kernel_members_annihilated():
    ring = ModRing(5)
    columns = {
        "x": {"a": ring.embed(1), "b": ring.embed(2)},
        "y": {"a": ring.embed(2), "b": ring.embed(4)},
        "z": {"a": ring.embed(3), "b": ring.embed(1)},
    }
    vecs = kernel_vectors(unboxed(columns), ["x", "y", "z"], ring)
    assert vecs
    for v in vecs:
        image = {}
        for label, c in v.items():
            for row, e in columns[label].items():
                image[row] = image.get(row, ring.zero) + ring.element(c) * e
        assert all(val == ring.zero for val in image.values())


def test_kernel_full_rank_is_trivial():
    columns = {"x": {"a": QQ.one}, "y": {"b": QQ.one}}
    assert kernel_vectors(unboxed(columns), ["x", "y"], QQ) == []


def test_kernel_requires_field():
    with pytest.raises(UnsupportedRingError):
        kernel_vectors({"x": {"a": ZZ.one}}, ["x"], ZZ)
