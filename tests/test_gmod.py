"""Graded free modules, sparse elements, tensor squares, graded maps."""

import pytest
from hypothesis import given, strategies as st

from hopfcheck.errors import StructuralError, UnsupportedRingError
from hopfcheck.gmod import (Element, GradedBasis, GradedMap, Tensor2Element,
                            Tensor2Map, kernel_vectors)
from hopfcheck.rings import QQ, ZZ, ModRing

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
