"""The raw-value accumulation kernel against naive RingElement references.

Each reference below computes with boxed ``RingElement`` arithmetic, one
``+`` and ``*`` at a time, the way the engine did before the kernel; the
kernel-backed operations must return exactly the same coefficient dicts.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfcheck.errors import StructuralError, UnsupportedRingError
from hopfcheck.gmod import (Element, GradedBasis, GradedMap, Tensor2Element,
                            Tensor2Map, kernel_vectors)
from hopfcheck.rings import QQ, ZZ, ModRing, PolyQuotientRing
from hopfcheck.zoo import shuffle_algebra

ZQ3 = PolyQuotientRing(ZZ, [1, 1, 1])
RINGS = [ZZ, QQ, ModRing(5), ModRing(6), ZQ3]
FIELDS = [QQ, ModRing(5),
          PolyQuotientRing(QQ, [1, 1, 1], irreducible=True)]
ids = [repr(r) for r in RINGS]

B = GradedBasis([["u"], ["x", "y"], ["xx", "xy", "yx", "yy"]])
LABELS = list(B.labels)


def scalars(ring):
    small = st.integers(min_value=-6, max_value=6)
    if ring is QQ:
        return st.builds(lambda n, d: QQ.element(Fraction(n, d)),
                         small, st.integers(min_value=1, max_value=4))
    if isinstance(ring, PolyQuotientRing):
        return st.builds(lambda a, b: ring.element([a, b]), small, small)
    return small.map(ring.embed)


def sparse(ring, keys):
    return st.dictionaries(st.sampled_from(keys), scalars(ring), max_size=5)


def elements(ring):
    return sparse(ring, LABELS).map(lambda c: Element(B, ring, c))


def homogeneous_maps(ring):
    def build(rows):
        return GradedMap(B, ring, {
            l: Element(B, ring, {m: c for m, c in row.items()
                                 if B.degree_of(m) == B.degree_of(l)})
            for l, row in zip(LABELS, rows)})
    return st.lists(sparse(ring, LABELS), min_size=len(LABELS),
                    max_size=len(LABELS)).map(build)


# --- naive references ------------------------------------------------------

def naive_sum(ring, products):
    """Sum (key, RingElement) pairs one boxed '+' at a time; drop zeros."""
    out = {}
    for key, value in products:
        out[key] = out[key] + value if key in out else value
    return {k: v for k, v in out.items() if v != ring.zero}


def naive_apply(images, ring, coeffs):
    return naive_sum(ring, ((k2, c * v) for k, c in coeffs.items()
                            for k2, v in images[k].coeffs.items()))


def naive_product(H, x, y):
    return naive_sum(H.ring, ((k, c1 * c2 * v)
                              for l1, c1 in x.coeffs.items()
                              for l2, c2 in y.coeffs.items()
                              for k, v in H.product_of_labels(l1, l2).coeffs.items()))


def naive_t2_product(H, s, t):
    return naive_sum(H.ring, (((ka, kb), c1 * c2 * va * vb)
                              for (a, b), c1 in s.coeffs.items()
                              for (a2, b2), c2 in t.coeffs.items()
                              for ka, va in H.product_of_labels(a, a2).coeffs.items()
                              for kb, vb in H.product_of_labels(b, b2).coeffs.items()))


def naive_kernel_vectors(columns, keys, ring):
    """Dense Gauss-Jordan elimination on RingElements."""
    if not ring.is_field:
        raise UnsupportedRingError(f"kernel computation needs a field, got {ring}")
    keys = list(keys)
    rows = list(dict.fromkeys(rk for k in keys for rk in columns[k]))
    mat = [[columns[k].get(rk, ring.zero) for k in keys] for rk in rows]
    pivots = []
    r = 0
    for c in range(len(keys)):
        pivot = next((i for i in range(r, len(rows)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = [inv * v for v in mat[r]]
        for i in range(len(rows)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    kernel = []
    for c in range(len(keys)):
        if c in pivots:
            continue
        vec = {keys[c]: ring.one}
        for i, pc in enumerate(pivots):
            if mat[i][c]:
                vec[keys[pc]] = -mat[i][c]
        kernel.append(vec)
    return kernel


# --- the kernel against the references --------------------------------------

@pytest.mark.parametrize("ring", RINGS, ids=ids)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_map_application_and_composition(ring, data):
    f = data.draw(homogeneous_maps(ring))
    g = data.draw(homogeneous_maps(ring))
    x = data.draw(elements(ring))
    assert f(x).coeffs == naive_apply(f.images, ring, x.coeffs)
    fg = f.compose(g)
    for label in LABELS:
        assert fg.images[label].coeffs == naive_apply(
            f.images, ring, g.images[label].coeffs)


@pytest.mark.parametrize("ring", RINGS, ids=ids)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_tensor_map_application(ring, data):
    f = data.draw(homogeneous_maps(ring))
    g = data.draw(homogeneous_maps(ring))
    pairs = [(a, b) for a in LABELS for b in LABELS]
    t = Tensor2Element(B, ring, data.draw(sparse(ring, pairs)))
    naive_images = {(a, b): naive_sum(ring, (((ka, kb), va * vb)
                                             for ka, va in f.images[a].coeffs.items()
                                             for kb, vb in g.images[b].coeffs.items()))
                    for a, b in pairs}
    fg = Tensor2Map(B, ring, {p: Tensor2Element(B, ring, img)
                              for p, img in naive_images.items()})
    expected = naive_apply(fg.images, ring, t.coeffs)
    assert fg(t).coeffs == expected
    assert f.apply_tensor(g, t).coeffs == expected


@pytest.mark.parametrize("ring", RINGS, ids=ids)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_hopf_product_and_t2_product(ring, data):
    H = _shuffle(ring)
    labels = list(H.basis.labels_up_to(1))
    x = Element(H.basis, ring, data.draw(sparse(ring, labels)))
    y = Element(H.basis, ring, data.draw(sparse(ring, labels)))
    assert H.product(x, y).coeffs == naive_product(H, x, y)
    pairs = [(a, b) for a in labels for b in labels]
    s = Tensor2Element(H.basis, ring, data.draw(sparse(ring, pairs)))
    t = Tensor2Element(H.basis, ring, data.draw(sparse(ring, pairs)))
    assert H.t2_product(s, t).coeffs == naive_t2_product(H, s, t)


_SHUFFLES = {}


def _shuffle(ring):
    # a*a = 2aa, so in Z/6 a coefficient 3 cancels it: zero divisors reach
    # the kernel's zero-dropping
    if ring not in _SHUFFLES:
        _SHUFFLES[ring] = shuffle_algebra(2, ring, 2)
    return _SHUFFLES[ring]


@pytest.mark.parametrize("ring", FIELDS, ids=[repr(r) for r in FIELDS])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_kernel_vectors(ring, data):
    keys = ["k0", "k1", "k2", "k3", "k4"]
    rows = ["r0", "r1", "r2", "r3"]
    columns = {k: {r: c for r, c in data.draw(sparse(ring, rows)).items() if c}
               for k in keys}
    assert (kernel_vectors(columns, keys, ring)
            == naive_kernel_vectors(columns, keys, ring))


@pytest.mark.parametrize("ring", [ZZ, ModRing(6), ZQ3], ids=repr)
def test_kernel_vectors_need_a_field(ring):
    columns = {"k0": {"r0": ring.one}}
    for impl in (kernel_vectors, naive_kernel_vectors):
        with pytest.raises(UnsupportedRingError):
            impl(columns, ["k0"], ring)


# --- ring checks ------------------------------------------------------------

def test_mixed_ring_coefficients_rejected():
    f = GradedMap.identity(B, ZZ)
    x = Element(B, ZZ, {"x": ZZ.one})
    x.coeffs["x"] = QQ.one  # a Q coefficient smuggled into a Z element
    with pytest.raises(StructuralError):
        f(x)
    with pytest.raises(StructuralError):
        f(Element(B, QQ, {"x": QQ.one}))
    with pytest.raises(StructuralError):
        Element(B, ZZ, {"x": QQ.one})
    with pytest.raises(StructuralError):
        Element.lincomb(B, ZZ, [(QQ.one, Element.basis_vector(B, ZZ, "x"), None)])


def test_map_checks_image_ring_when_built():
    images = {l: Element.basis_vector(B, ZZ, l) for l in LABELS}
    images["y"] = Element.basis_vector(B, QQ, "y")
    with pytest.raises(StructuralError):
        GradedMap(B, ZZ, images)
