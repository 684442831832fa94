"""The raw-value kernels against naive RingElement references.

Each reference below computes with boxed ``RingElement`` arithmetic, one
``+`` and ``*`` at a time, the way the engine did before the kernels; the
kernel-backed operations, whose elements hold raw values, must return
exactly the same coefficients, read boxed through ``coeff``.
The chain engine's level-by-level steps are checked against a per-label
engine, which applies the map with ``GradedMap.__call__``.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfcheck import gmod
from hopfcheck.errors import StructuralError, UnsupportedRingError
from hopfcheck.gmod import (DegreeBlock, Element, GradedBasis, GradedMap,
                            Tensor2Element, Tensor2Map, _dense, kernel_vectors)
from hopfcheck.hopf import HopfPresentation
from hopfcheck.reduced import reduced_coproduct_label
from hopfcheck.report import FAIL, PASS, Report, witness_of
from hopfcheck.rings import QQ, ZZ, ModRing, PolyQuotientRing
from hopfcheck.specfile import export_presentation, parse_presentation
from hopfcheck.verify import (PreCoalgebraInstance, chain_checks,
                              check_hypotheses)
from hopfcheck.zoo import (free_example_abc, fqsym, shuffle_algebra,
                           tensor_algebra)

ZQ3 = PolyQuotientRing(ZZ, [1, 1, 1])
# a quotient declared a field, and one that is not declared a field
QFIELD = PolyQuotientRing(QQ, [1, 1, 1], irreducible=True)
QQ_Q = PolyQuotientRing(QQ, [1, 0, 1])
# a modulus with a non-integer coefficient: q^s v mod f has denominators
QHALF = PolyQuotientRing(QQ, [Fraction(1, 2), 0, 1])
RINGS = [ZZ, QQ, ModRing(5), ModRing(6), ZQ3]
FIELDS = [QQ, ModRing(5), QFIELD]
ids = [repr(r) for r in RINGS]
# every ring kind, with a quotient over each base
ALL_RINGS = RINGS + [QFIELD, QQ_Q]
all_ids = [repr(r) for r in ALL_RINGS]
# the rings without exact elimination, where a chain level is tested on
# every label
PER_LABEL_RINGS = [ModRing(6), ZQ3, QQ_Q]

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

def boxed(x):
    """The coefficients of a sparse element, boxed through ``coeff``."""
    return {k: x.coeff(k) for k in x.coeffs}


def unboxed(columns):
    """Raw copies of boxed columns, the input of ``kernel_vectors``."""
    return {k: {r: v.value for r, v in column.items()}
            for k, column in columns.items()}


def naive_sum(ring, products):
    """Sum (key, RingElement) pairs one boxed '+' at a time; drop zeros."""
    out = {}
    for key, value in products:
        out[key] = out[key] + value if key in out else value
    return {k: v for k, v in out.items() if v != ring.zero}


def naive_apply(images, ring, coeffs):
    return naive_sum(ring, ((k2, c * v) for k, c in coeffs.items()
                            for k2, v in boxed(images[k]).items()))


def naive_product(H, x, y):
    return naive_sum(H.ring, ((k, c1 * c2 * v)
                              for l1, c1 in boxed(x).items()
                              for l2, c2 in boxed(y).items()
                              for k, v in boxed(H.product_of_labels(l1, l2)).items()))


def naive_t2_product(H, s, t):
    return naive_sum(H.ring, (((ka, kb), c1 * c2 * va * vb)
                              for (a, b), c1 in boxed(s).items()
                              for (a2, b2), c2 in boxed(t).items()
                              for ka, va in boxed(H.product_of_labels(a, a2)).items()
                              for kb, vb in boxed(H.product_of_labels(b, b2)).items()))


def naive_coproduct(H, x):
    return naive_sum(H.ring, ((k, c * v) for l, c in boxed(x).items()
                              for k, v in boxed(H.coproduct_of_label(l)).items()))


def naive_coassociative(H, label):
    """Whether the triple tensors sum_{a(x)b} c coproduct(a)(x)b and
    sum_{a(x)b} c a(x)coproduct(b) over coproduct(label) agree."""
    cop = lambda l: boxed(H.coproduct_of_label(l))
    terms = cop(label).items()
    left = naive_sum(H.ring, (((a1, a2, b), c * v) for (a, b), c in terms
                              for (a1, a2), v in cop(a).items()))
    right = naive_sum(H.ring, (((a, b1, b2), c * v) for (a, b), c in terms
                               for (b1, b2), v in cop(b).items()))
    return left == right


def naive_multiplicative_failure(H, pair):
    """The witness of coproduct(x*y) = coproduct(x)*coproduct(y) on a
    failing pair (x, y): the difference of the two sides, or None."""
    lhs = naive_coproduct(H, H.product_of_labels(*pair))
    rhs = naive_t2_product(H, *map(H.coproduct_of_label, pair))
    diff = naive_sum(H.ring, itertools.chain(
        lhs.items(), ((k, -v) for k, v in rhs.items())))
    return diff and witness_of(pair, Tensor2Element(H.basis, H.ring, diff))


def naive_convolution_failure(H, f, g):
    """The first label on which m o (f(x)g) o coproduct = unit o counit
    fails, for maps f and g given by their boxed images, or None."""
    for label in H.basis.labels:
        t = naive_sum(H.ring, (((k1, k2), c * v * w)
                               for (a, b), c in boxed(H.coproduct_of_label(label)).items()
                               for k1, v in f[a].items() for k2, w in g[b].items()))
        got = naive_sum(H.ring, ((k, c * v) for pair, c in t.items()
                                 for k, v in boxed(H.product_of_labels(*pair)).items()))
        counit = H.counit_of_label(label)
        if got != ({H.unit_label: counit} if counit != H.ring.zero else {}):
            return label
    return None


def naive_antipode(H, right):
    """The images of the left (right) antipode recursion, label by label in
    basis order: S(x) = -sum c S(x1) x2 over deg x1 < deg x, or
    -sum c x1 S(x2) over deg x2 < deg x."""
    deg, pl = H.degree_of, H.product_of_labels
    S = {H.unit_label: {H.unit_label: H.ring.one}}
    for label in H.basis.labels_between(1, H.max_degree):
        terms = []
        for (l1, l2), c in boxed(H.coproduct_of_label(label)).items():
            if deg(l2 if right else l1) < deg(label):
                for m, v in S[l2 if right else l1].items():
                    row = pl(l1, m) if right else pl(m, l2)
                    terms += ((k, -(c * v * w)) for k, w in boxed(row).items())
        S[label] = naive_sum(H.ring, terms)
    return S


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
    assert boxed(f(x)) == naive_apply(f.images, ring, boxed(x))
    fg = f.compose(g)
    for label in LABELS:
        assert boxed(fg.images[label]) == naive_apply(
            f.images, ring, boxed(g.images[label]))


@pytest.mark.parametrize("ring", ALL_RINGS, ids=all_ids)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_compose_with_the_identity_returns_the_other_factor(ring, data):
    f = data.draw(homogeneous_maps(ring))
    e, e2 = GradedMap.identity(B, ring), GradedMap.identity(B, ring)
    assert e.compose(f) is f
    assert f.compose(e) is f
    assert e.compose(e2) is e2


def near_identities(ring):
    """The identity with one coefficient off, or with one extra term in
    the image of a label of degree 1 or 2."""
    def build(label, other_at, c, extra):
        images = dict(GradedMap.identity(B, ring).images)
        if extra:
            same = [m for m in B.labels_of_degree(B.degree_of(label)) if m != label]
            images[label] = Element(B, ring, {label: ring.one,
                                              same[other_at % len(same)]: c})
        else:
            images[label] = Element(B, ring, {label: ring.one + c})
        return GradedMap(B, ring, images)
    return st.builds(build, st.sampled_from(LABELS[1:]), st.integers(0, 3),
                     scalars(ring).filter(bool), st.booleans())


@pytest.mark.parametrize("ring", ALL_RINGS, ids=all_ids)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_compose_with_a_near_identity_composes_in_full(ring, data):
    f = data.draw(homogeneous_maps(ring))
    near = data.draw(near_identities(ring))
    for a, b in ((near, f), (f, near), (near, near)):
        ab = a.compose(b)
        for label in LABELS:
            assert boxed(ab.images[label]) == naive_apply(
                a.images, ring, boxed(b.images[label]))


@pytest.mark.parametrize("ring", ALL_RINGS, ids=all_ids)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_the_identity_applies_without_arithmetic(ring, data):
    """The identity map returns its argument, from ``__call__`` and from
    ``apply_tensor``, and sums nothing; a map that is the identity on every
    label but the last one still applies in full, on elements and on the
    tensor square."""
    x = data.draw(elements(ring))
    t = Tensor2Element(B, ring, data.draw(sparse(
        ring, [(a, b) for a in LABELS for b in LABELS])))
    e = GradedMap.identity(B, ring)
    images = dict(e.images)
    images[LABELS[-1]] = Element(B, ring, {LABELS[-1]: ring.one + ring.one})
    near = GradedMap(B, ring, images)

    def no_sum(ring, terms):
        raise AssertionError("the identity summed a linear combination")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gmod, "_accumulate", no_sum)
        assert e(x) is x and e.apply_tensor(e, t) is t
    for a, b in ((near, near), (e, near), (near, e)):
        assert boxed(a(x)) == naive_apply(a.images, ring, boxed(x))
        assert boxed(a.apply_tensor(b, t)) == naive_sum(ring, (
            ((k1, k2), c * v * w) for (l1, l2), c in boxed(t).items()
            for k1, v in boxed(a.images[l1]).items()
            for k2, w in boxed(b.images[l2]).items()))


@pytest.mark.parametrize("ring", RINGS, ids=ids)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_tensor_map_application(ring, data):
    f = data.draw(homogeneous_maps(ring))
    g = data.draw(homogeneous_maps(ring))
    pairs = [(a, b) for a in LABELS for b in LABELS]
    t = Tensor2Element(B, ring, data.draw(sparse(ring, pairs)))
    naive_images = {(a, b): naive_sum(ring, (((ka, kb), va * vb)
                                             for ka, va in boxed(f.images[a]).items()
                                             for kb, vb in boxed(g.images[b]).items()))
                    for a, b in pairs}
    fg = Tensor2Map(B, ring, {p: Tensor2Element(B, ring, img)
                              for p, img in naive_images.items()})
    expected = naive_apply(fg.images, ring, boxed(t))
    assert boxed(fg(t)) == expected
    assert boxed(f.apply_tensor(g, t)) == expected


@pytest.mark.parametrize("ring", RINGS, ids=ids)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_hopf_product_and_t2_product(ring, data):
    H = _shuffle(ring)
    labels = list(H.basis.labels_up_to(1))
    x = Element(H.basis, ring, data.draw(sparse(ring, labels)))
    y = Element(H.basis, ring, data.draw(sparse(ring, labels)))
    assert boxed(H.product(x, y)) == naive_product(H, x, y)
    pairs = [(a, b) for a in labels for b in labels]
    s = Tensor2Element(H.basis, ring, data.draw(sparse(ring, pairs)))
    t = Tensor2Element(H.basis, ring, data.draw(sparse(ring, pairs)))
    assert boxed(H.t2_product(s, t)) == naive_t2_product(H, s, t)


@pytest.mark.parametrize("ring", RINGS + [QQ_Q], ids=ids + [repr(QQ_Q)])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_index_keyed_rows_match_label_keyed_references(ring, data):
    """Every sum over the index-keyed table rows against a boxed reference
    over labels, on shuffle (whose product rows are not monomials) and abc,
    each with one drawn product entry and one drawn coproduct entry changed,
    so that the axioms can fail."""
    for base in (_shuffle(ring), _abc(ring)):
        P = perturbed(base, data)
        labels, top = list(P.basis.labels), P.max_degree
        d = data.draw(st.integers(0, top))
        low, high = P.basis.labels_up_to(d), P.basis.labels_up_to(top - d)
        x = Element(P.basis, ring, data.draw(sparse(ring, low)))
        y = Element(P.basis, ring, data.draw(sparse(ring, high)))
        assert boxed(P.product(x, y)) == naive_product(P, x, y)
        s = Tensor2Element(P.basis, ring, data.draw(sparse(ring, [
            (a, b) for a in low for b in low])))
        t = Tensor2Element(P.basis, ring, data.draw(sparse(ring, [
            (a, b) for a in high for b in high])))
        assert boxed(P.t2_product(s, t)) == naive_t2_product(P, s, t)
        for label in labels:
            assert P.coassociative_on(label) == naive_coassociative(P, label)
        label = data.draw(st.sampled_from(labels))
        assert P.coproduct(P.element(label)) is P.coproduct_of_label(label)
        c = data.draw(scalars(ring))
        for x in (Element(P.basis, ring, {label: c}),
                  Element(P.basis, ring, data.draw(sparse(ring, labels)))):
            assert boxed(P.coproduct(x)) == naive_coproduct(P, x)
        pairs = [(x, y) for d in range(top + 1) for x in P.basis.labels_of_degree(d)
                 for y in P.basis.labels_up_to(top - d)]
        witness = next(filter(None, (naive_multiplicative_failure(P, pair)
                                     for pair in pairs)), None)
        check = {c.claim: c for c in P.verify_bialgebra().checks}[
            "coproduct-multiplicative"]
        assert (check.status, check.witness) == (
            (PASS, None) if witness is None else (FAIL, witness))
        ident = {l: {l: ring.one} for l in labels}
        for right, S in ((False, P.antipode()), (True, P.antipode_oracle())):
            images = {l: boxed(S.images[l]) for l in labels}
            assert images == naive_antipode(P, right)
            checks = P.verify_antipode_axioms(S).checks
            for check, (f, g) in zip(checks, ((images, ident), (ident, images))):
                label = naive_convolution_failure(P, f, g)
                assert (check.status, check.witness) == (
                    (PASS, None) if label is None else (FAIL, witness_of(label)))


_SHUFFLES, _ABCS = {}, {}


def _shuffle(ring):
    # a*a = 2aa, so in Z/6 a coefficient 3 cancels it: zero divisors reach
    # the kernel's zero-dropping
    if ring not in _SHUFFLES:
        _SHUFFLES[ring] = shuffle_algebra(2, ring, 2)
    return _SHUFFLES[ring]


def _abc(ring):
    if ring not in _ABCS:
        _ABCS[ring] = free_example_abc(ring, 3)
    return _ABCS[ring]


def perturbed(H, data):
    """H with one drawn product entry and one drawn coproduct entry plus a
    drawn multiple of a label (a pair of labels) of the entry's degree.  The
    result need not be a bialgebra, so its checks can fail."""
    basis, ring, deg = H.basis, H.ring, H.degree_of
    l1, l2 = data.draw(st.sampled_from([
        (a, b) for a in basis.labels for b in basis.labels
        if deg(a) + deg(b) <= basis.max_degree]))
    term = data.draw(st.sampled_from(basis.labels_of_degree(deg(l1) + deg(l2))))
    label = data.draw(st.sampled_from(basis.labels))
    pair = data.draw(st.sampled_from([
        (a, b) for a in basis.labels for b in basis.labels
        if deg(a) + deg(b) == deg(label)]))
    c, e = data.draw(scalars(ring)), data.draw(scalars(ring))

    def product_rule(a, b):
        x = H.product_of_labels(a, b)
        return x + Element(basis, ring, {term: c}) if (a, b) == (l1, l2) else x

    def coproduct_rule(l):
        t = H.coproduct_of_label(l)
        return t + Tensor2Element(basis, ring, {pair: e}) if l == label else t

    return HopfPresentation(H.name, basis, ring, product_rule, coproduct_rule,
                            {H.unit_label: ring.one}, H.unit_label)


# abc over Z/5 at N=5 with one wrong coefficient: in the product of a
# degree-5 pair, or in the coproduct of a degree-4 label
LATE_PLANTS = {"product": ("product cc b =", "= 1 ccb", "= 2 ccb"),
               "coproduct": ("coproduct cc =", "+ 2 c c", "+ 3 c c")}


@pytest.mark.parametrize("plant", LATE_PLANTS)
def test_bialgebra_first_failures_match_the_boxed_sides(plant):
    """The suite's first failing label and pair, in its order, and their
    witnesses, are those the boxed references give."""
    prefix, old, new = LATE_PLANTS[plant]
    lines = export_presentation(free_example_abc(ModRing(5), 5)).splitlines(True)
    hit, = [i for i, line in enumerate(lines)
            if line.startswith(prefix + " ") and old in line]
    lines[hit] = lines[hit].replace(old, new, 1)
    H = parse_presentation("".join(lines))
    checks = {c.claim: c for c in H.verify_bialgebra().checks}
    n = H.max_degree
    pairs = [(x, y) for d in range(n + 1) for x in H.basis.labels_of_degree(d)
             for y in H.basis.labels_up_to(n - d)]
    expected = {
        "coassociativity": next((witness_of(l) for l in H.basis.labels
                                 if not naive_coassociative(H, l)), None),
        "coproduct-multiplicative":
            next(filter(None, (naive_multiplicative_failure(H, pair)
                               for pair in pairs)), None)}
    assert expected["coproduct-multiplicative"] is not None
    assert (expected["coassociativity"] is None) == (plant == "product")
    for claim, witness in expected.items():
        assert (checks[claim].status, checks[claim].witness) == (
            (PASS, None) if witness is None else (FAIL, witness))


def as_items(vectors):
    """Boxed kernel vectors as lists of (key, raw value), so that both the
    vectors and the order of their entries are compared."""
    return [[(k, v.value) for k, v in vec.items()] for vec in vectors]


def raw_items(vectors):
    """Raw kernel vectors, from ``kernel_vectors``, as lists of (key, value)."""
    return [list(vec.items()) for vec in vectors]


@st.composite
def kernel_columns(draw, ring, keys, rows):
    """Sparse columns over ``rows``: fresh ones (over Q with denominators
    1 to 4 mixed), zero columns, and duplicates and multiples of earlier
    columns."""
    columns = {}
    for n, key in enumerate(keys):
        kind = draw(st.sampled_from(("fresh", "zero", "multiple")[:3 if n else 2]))
        if kind == "fresh":
            column = draw(sparse(ring, rows))
        elif kind == "zero":
            column = {}
        else:
            c = draw(st.one_of(st.just(ring.one), scalars(ring)))
            source = columns[draw(st.sampled_from(keys[:n]))]
            column = {r: c * v for r, v in source.items()}
        columns[key] = {r: v for r, v in column.items() if v}
    return columns


@pytest.mark.parametrize("ring", FIELDS, ids=[repr(r) for r in FIELDS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_vectors(ring, data):
    """Columns in up to three groups over disjoint row keys, their keys
    interleaved: eliminated group by group, the kernel is the one of the
    single-matrix elimination, vector for vector and in the same key
    order."""
    keys = [f"k{i}" for i in range(10)]
    groups = data.draw(st.integers(1, 3))
    group_of = data.draw(st.lists(st.integers(0, groups - 1),
                                  min_size=len(keys), max_size=len(keys)))
    columns = {}
    for h in range(groups):
        columns.update(data.draw(kernel_columns(
            ring, [k for k, g in zip(keys, group_of) if g == h],
            [f"r{h}.{i}" for i in range(6)])))
    assert (raw_items(kernel_vectors(unboxed(columns), keys, ring))
            == as_items(naive_kernel_vectors(columns, keys, ring)))


@pytest.mark.parametrize("build", [tensor_algebra, shuffle_algebra],
                         ids=["tensor", "shuffle"])
def test_kernel_vectors_of_delta_columns(build):
    H = build(2, QQ, 4)
    deltas = {l: reduced_coproduct_label(H, l) for l in H.basis.labels}
    columns = {l: t.coeffs for l, t in deltas.items()}
    boxed_columns = {l: boxed(t) for l, t in deltas.items()}
    for keys in [H.basis.labels] + [H.basis.labels_of_degree(d)
                                    for d in range(1, 5)]:
        assert (raw_items(kernel_vectors(columns, keys, QQ))
                == as_items(naive_kernel_vectors(boxed_columns, keys, QQ)))


# Over Q with denominators 2 to 9, so that the common denominator of the
# matrix is above 1; delta(1) = 1(x)1 and delta(a) = 1/2 a(x)1 are nonzero,
# so the first kernel vector is a dependency among the columns
KERNEL_PIN_SPEC = """\
hopf-spec 1
name kernel-pin
ring Q
maxdeg 2
tables
unit 1
basis 0 1
basis 1 a b
basis 2 x y z w
counit 1 = 1
coproduct 1 = 2 1 1
coproduct a = 1 1 a + 3/2 a 1
coproduct b = 1 1 b + 1 b 1 + 1/3 a 1
coproduct x = 1 1 x + 1/2 a b + 1/3 b a + 1 x 1
coproduct y = 1 1 y + 3/4 a b + 1/2 b a + 1 y 1
coproduct z = 1 1 z + 2/5 a a + 1 z 1
coproduct w = 1 1 w + 1/6 a b + 1/9 b a + 5/7 a a + 1 w 1
"""


def test_kernel_witness_pins_the_kernel_vectors():
    # recorded before the elimination ran on integer rows; with e = id and
    # f = 0 every nonzero kernel vector fails, so the witness is the first
    H = parse_presentation(KERNEL_PIN_SPEC)
    delta = {l: reduced_coproduct_label(H, l) for l in H.basis.labels}
    I = PreCoalgebraInstance("kernel-pin", H.basis, QQ, delta,
                             GradedMap.identity(H.basis, QQ),
                             GradedMap.zero(H.basis, QQ), 1)
    checks = {c.claim: (c.status, c.witness) for c in check_hypotheses(I).checks}
    assert checks["kernel"] == (FAIL, "-2/3*a + 1*b -> -2/3*a + 1*b")
    columns = {l: t.coeffs for l, t in delta.items()}
    assert raw_items(kernel_vectors(columns, H.basis.labels, QQ)) == [
        [("b", 1), ("a", Fraction(-2, 3))],
        [("y", 1), ("x", Fraction(-3, 2))],
        [("w", 1), ("x", Fraction(-1, 3)), ("z", Fraction(-25, 14))]]


@pytest.mark.parametrize("ring", [ZZ, ModRing(6), ZQ3], ids=repr)
def test_kernel_vectors_need_a_field(ring):
    columns = {"k0": {"r0": ring.one}}
    for impl in (kernel_vectors, naive_kernel_vectors):
        with pytest.raises(UnsupportedRingError):
            impl(columns, ["k0"], ring)


# --- ring checks ------------------------------------------------------------

def test_mixed_ring_coefficients_rejected():
    f = GradedMap.identity(B, ZZ)
    with pytest.raises(StructuralError):
        Element(B, ZZ, {"x": Fraction(1, 2)})  # a raw Q value given to Z
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


# --- Ring._dot ----------------------------------------------------------------

@pytest.mark.parametrize("ring", ALL_RINGS, ids=all_ids)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_dot_matches_boxed_fold(ring, data):
    pairs = data.draw(st.lists(st.tuples(scalars(ring), scalars(ring)),
                               max_size=6))
    expected = ring.zero
    for a, b in pairs:
        expected = expected + a * b
    got = ring._dot([a.value for a, _ in pairs], [b.value for _, b in pairs])
    assert type(got) is type(expected.value)
    assert got == expected.value


@pytest.mark.parametrize("ring", ALL_RINGS, ids=all_ids)
def test_dot_of_empty_and_negative_inputs(ring):
    assert ring._dot([], []) == ring._zero
    assert type(ring._dot([], [])) is type(ring._zero)
    a = [ring.embed(n).value for n in (-3, 2, -1)]
    b = [ring.embed(n).value for n in (4, -5, -7)]
    assert ring._dot(a, b) == ring.embed(-15).value


# --- the chain levels of a degree block ---------------------------------------

WALK_BASIS = GradedBasis([["u"], ["x", "y"], ["x2", "y2", "z2", "w2"],
                          ["a3", "b3", "c3", "d3", "e3"]])


def random_scalar(ring, rnd):
    n = lambda: rnd.randint(-4, 4)
    # denominators 2, 3 and 4 mixed, so a block's lcm exceeds 1
    q = lambda: Fraction(n(), rnd.choice((1, 2, 3, 4)))
    if ring is QQ:
        return QQ.element(q())
    if isinstance(ring, PolyQuotientRing):
        make = q if ring.base is QQ else n
        return ring.element([make(), make()])
    return ring.embed(n())


def random_map(ring, kind, seed):
    """A seeded homogeneous map: ``dense`` or ``sparse`` entries,
    ``nilpotent`` (strictly lower triangular on each degree, so that every
    chain reaches zero), ``deficient`` (every image a combination of two
    fixed vectors of its degree) or ``zero``."""
    rnd = random.Random(seed)
    density = {"dense": 0.9, "sparse": 0.25, "nilpotent": 0.7,
               "deficient": 0.7, "zero": 0}[kind]
    images = {}
    for labels in WALK_BASIS.degrees:
        vector = lambda: Element(WALK_BASIS, ring, {
            m: random_scalar(ring, rnd) for m in labels if rnd.random() < density})
        pair = (vector(), vector())
        for j, label in enumerate(labels):
            if kind == "deficient":
                images[label] = (pair[0].scale(random_scalar(ring, rnd))
                                 + pair[1].scale(random_scalar(ring, rnd)))
                continue
            images[label] = Element(WALK_BASIS, ring, {
                m: random_scalar(ring, rnd) for i, m in enumerate(labels)
                if (i > j or kind != "nilpotent") and rnd.random() < density})
    return GradedMap(WALK_BASIS, ring, images)


def reference_chain_checks(rep, g, p, checks, filtered=False):
    """A per-label engine: each label's chain is walked on its own, each
    step g(y), and every step in scope is tested."""
    basis, top = g.basis, g.basis.max_degree
    failed_u = [top + 1] * len(checks)
    witness = [None] * len(checks)
    lowest = 0 if filtered else min(check[2] for check in checks)
    for label in basis.labels_between(lowest, top):
        d = basis.degree_of(label)
        todo = {}
        for i, (_, _, first_u, shift, failure) in enumerate(checks):
            lo, hi = max(first_u, d), min(top if filtered else d, failed_u[i] - 1)
            if lo <= hi:
                todo[i] = (lo, hi, shift, failure)
        y, k = Element.basis_vector(basis, g.ring, label), 0
        while todo and not y.is_zero():
            for i, (lo, hi, shift, failure) in list(todo.items()):
                u = k + p - shift
                if u < lo:
                    continue
                value = failure(y)
                if value is not None:
                    failed_u[i] = u
                    witness[i] = witness_of((label, u) if filtered else label,
                                            value)
                if value is not None or u == hi:
                    del todo[i]
            if todo:
                y, k = g(y), k + 1
    for (claim, statement, _, _, _), bad in zip(checks, witness):
        rep.add(claim, statement, FAIL if bad else PASS, bad)


def recorded_checks(p, calls):
    """Declarations whose failures log (claim, y) to ``calls``.  The
    targets are subspaces: a zero coefficient on one label, and zero."""
    def on(claim, failure):
        def recorded(y):
            calls.append((claim, y))
            return failure(y)
        return recorded

    def off_label(label):
        return lambda y: y if y.coeff(label) else None

    return (("target-z2", "coefficient of z2 is 0", p + 1, 0,
             on("target-z2", off_label("z2"))),
            ("target-c3", "coefficient of c3 is 0", p + 1, 0,
             on("target-c3", off_label("c3"))),
            ("nilpotency", "y = 0", p, 1,
             on("nilpotency", lambda y: None if y.is_zero() else y)))


@pytest.mark.parametrize("filtered", [False, True], ids=["graded", "filtered"])
@pytest.mark.parametrize("kind", ["dense", "sparse", "nilpotent"])
@pytest.mark.parametrize("ring", ALL_RINGS, ids=all_ids)
def test_block_walk_matches_per_label_engine(ring, kind, filtered):
    g = random_map(ring, kind, f"{ring}|{kind}")
    for p in (1, 2):
        runs = []
        for engine in (chain_checks, reference_chain_checks):
            rep, calls = Report("walk"), []
            engine(rep, g, p, recorded_checks(p, calls), filtered=filtered)
            runs.append((rep.to_dict(), calls))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1], "no check read a chain"
        # the engine tests only chain values that the reference tests too
        assert all(call in runs[1][1] for call in runs[0][1])


def block_chain(block, label, steps):
    """g^k(x) on the basis vector x of ``label`` for k < ``steps``, boxed
    from the block's levels up to the first zero."""
    walked = []
    for k, level in enumerate(itertools.islice(block.levels(), steps)):
        entry = next((e for e in level if block.labels[e[0]] == label), None)
        if entry is None:
            break
        walked.append(block.box(k, *entry))
    return walked


@pytest.mark.parametrize("kind", ["dense", "sparse", "nilpotent"])
@pytest.mark.parametrize("ring", ALL_RINGS, ids=all_ids)
def test_block_chain_is_the_iterated_map(ring, kind):
    g = random_map(ring, kind, f"chain|{ring}|{kind}")
    for d in range(WALK_BASIS.max_degree + 1):
        block = DegreeBlock(g, d)
        if ring is QQ and d >= 2:
            assert block.scale > 1
        for level in itertools.islice(block.levels(), 5):
            positions = [j for j, _, _ in level]
            assert level and positions == sorted(set(positions))
        for label in WALK_BASIS.labels_of_degree(d):
            walked = block_chain(block, label, 5)
            expected = [Element.basis_vector(WALK_BASIS, ring, label)]
            while len(expected) < 5 and not expected[-1].is_zero():
                expected.append(g(expected[-1]))
            if expected[-1].is_zero():
                expected.pop()
            assert walked == expected


# --- the vectors of a chain level that the engine tests ---------------------

SPAN_RINGS = [ZZ, QQ, ModRing(5), QFIELD]
KINDS = ["dense", "deficient", "zero", "nilpotent"]


def brute_rank(ring, vectors):
    """The rank of Elements over ``ring`` (over Q for Z), by the dense
    boxed elimination of ``naive_kernel_vectors``."""
    field = QQ if ring is ZZ else ring
    columns = {n: {l: field.element(v.coeff(l).value) for l in v.coeffs}
               for n, v in enumerate(vectors)}
    return len(vectors) - len(naive_kernel_vectors(columns, columns, field))


def kept(block, level):
    """The entries of a level of ``block.levels()`` that
    ``_independent`` keeps: those the chain engine tests."""
    return [level[n] for n in block._independent([y for _, y, _ in level])]


def spanning_columns(block):
    """The positions of the labels whose images the engine tests at level
    1: the kept columns of the block."""
    level = next(itertools.islice(block.levels(), 1, None), [])
    return [j for j, _, _ in kept(block, level)]


def brute_powers(g, label, k):
    """g^k of the basis vector of ``label``, one ``GradedMap`` call a step."""
    y = Element.basis_vector(g.basis, g.ring, label)
    for _ in range(k):
        y = g(y)
    return y


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ring", SPAN_RINGS, ids=repr)
def test_spanning_columns_are_a_basis_of_the_image(ring, kind):
    g = random_map(ring, kind, f"span|{ring}|{kind}")
    ranks, scales = [], []
    for d in range(WALK_BASIS.max_degree + 1):
        block = DegreeBlock(g, d)
        scales.append(block.scale or 1)
        images = [g.images[l] for l in block.labels]
        J = spanning_columns(block)
        rank = brute_rank(ring, images)
        spanning = [images[j] for j in J]
        assert len(J) == rank == brute_rank(ring, spanning)
        for image in images:
            assert brute_rank(ring, spanning + [image]) == rank
        ranks.append(rank)
    if ring is QQ and kind != "zero":
        assert max(scales) > 1
    # full rank, rank-deficient, zero and nilpotent blocks all occur
    sizes = [len(labels) for labels in WALK_BASIS.degrees]
    if kind == "dense":
        # the seeded draw over QFIELD gives the degree-0 label a zero image
        assert ranks[:3] == sizes[:3] or (ring is QFIELD and ranks[0] == 0
                                          and ranks[1:3] == sizes[1:3])
    elif kind == "deficient":
        assert max(ranks) == ranks[3] == 2 < sizes[3]
    elif kind == "zero":
        assert ranks == [0, 0, 0, 0]
    else:
        assert all(0 < r < n for r, n in zip(ranks[1:], sizes[1:]))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ring", SPAN_RINGS, ids=repr)
def test_spans_are_bases_of_every_power(ring, kind):
    g = random_map(ring, kind, f"spans|{ring}|{kind}")
    for d in range(WALK_BASIS.max_degree + 1):
        block = DegreeBlock(g, d)
        labels = block.labels
        levels = [[block.box(k, *entry) for entry in kept(block, level)]
                  for k, level in enumerate(
                      itertools.islice(block.levels(), len(labels) + 2))]
        for k in range(len(labels) + 2):
            powers = [brute_powers(g, l, k) for l in labels]
            rank = brute_rank(ring, powers)
            level = levels[k] if k < len(levels) else []
            assert len(level) == rank == brute_rank(ring, level)
            assert all(y in powers and not y.is_zero() for y in level)
            for y in powers:
                assert brute_rank(ring, level + [y]) == rank


@pytest.mark.parametrize("ring", [ZZ] + FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_spanning_columns_complement_the_kernel_leads(ring, data):
    # one elimination serves both: the columns outside the span of those
    # before them are exactly the columns that lead no kernel vector
    # (over Q for Z)
    keys = [f"k{i}" for i in range(6)]
    basis = GradedBasis([["1"], keys])
    columns = data.draw(kernel_columns(ring, keys, keys))
    g = GradedMap(basis, ring, {"1": Element.zero(basis, ring), **{
        k: Element(basis, ring, column) for k, column in columns.items()}})
    field = QQ if ring is ZZ else ring
    raw = {k: {r: field._value(v.value) for r, v in column.items()}
           for k, column in columns.items()}
    leads = {next(iter(vec)) for vec in kernel_vectors(raw, keys, field)}
    assert spanning_columns(DegreeBlock(g, 1)) == [
        j for j, k in enumerate(keys) if k not in leads]


def brute_exponent(g, labels):
    """The least k with g^k(x) = 0 on every label, or None when some chain
    is not zero after len(labels) steps."""
    exponent = 0
    for label in labels:
        k = next((k for k in range(len(labels) + 1)
                  if brute_powers(g, label, k).is_zero()), None)
        if k is None:
            return None
        exponent = max(exponent, k)
    return exponent


@pytest.mark.parametrize("kind", ["dense", "sparse"] + KINDS[1:])
@pytest.mark.parametrize("ring", ALL_RINGS, ids=all_ids)
def test_nilpotency_exponent_matches_iterated_map(ring, kind):
    g = random_map(ring, kind, f"exponent|{ring}|{kind}")
    exponents = []
    for d in range(WALK_BASIS.max_degree + 1):
        block = DegreeBlock(g, d)
        expected = (None if ring in PER_LABEL_RINGS
                    else brute_exponent(g, block.labels))
        assert block.nilpotency_exponent() == expected
        exponents.append(expected)
    if kind == "nilpotent" and ring not in PER_LABEL_RINGS:
        assert exponents[3] > 1
    if kind == "zero" and ring not in PER_LABEL_RINGS:
        assert exponents == [1, 1, 1, 1]


def test_nilpotency_exponent_of_an_empty_degree_is_zero():
    B = GradedBasis([["1"], [], ["x"]])
    block = DegreeBlock(GradedMap.zero(B, ZZ), 1)
    assert list(block.levels()) == []
    assert block.nilpotency_exponent() == 0


@pytest.mark.parametrize("ring", SPAN_RINGS, ids=repr)
def test_witness_outside_the_spanning_columns(ring):
    # g(y) = g(x) and g(z) = 2 g(x), so neither is a kept column of
    # degree 1, and z is the only label that fails: its exponent-0 step
    # y = z has a z term
    B = GradedBasis([["1"], ["x", "y", "z"], ["v", "w"]])
    vec = lambda l: Element.basis_vector(B, ring, l)
    zero = Element.zero(B, ring)
    x_plus_y = vec("x") + vec("y")
    g = GradedMap(B, ring, {"1": zero, "x": x_plus_y, "y": x_plus_y,
                            "z": x_plus_y.scale(ring.embed(2)),
                            "v": vec("w"), "w": zero})
    assert spanning_columns(DegreeBlock(g, 1)) == [0]
    seen = []

    def failure(y):
        seen.append(y)
        return y if y.coeff("z") else None

    rep = Report("outside")
    chain_checks(rep, g, 1, [("no-z", "coefficient of z is 0", 1, 0, failure)])
    one = ring.format_value(ring._one)
    assert [(c.status, c.witness) for c in rep.checks] == [
        (FAIL, f"'z' -> {one}*z")]
    # level 0 of degree 1, the basis vectors, is tested in label order up
    # to the failure; nothing of degree 2 is tested once u = 1 failed
    assert seen == [vec("x"), vec("y"), vec("z")]
    assert not any(y.is_zero() for y in seen)


# --- the packed step of a dense block ---------------------------------------

# a basis with an empty degree
PACK_BASIS = GradedBasis([["1"], [], ["x", "y", "z"], ["p", "q", "r", "s", "t"]])
PACK_CELLS = [(l, m) for labels in PACK_BASIS.degrees
              for l in labels for m in labels]


def typed_value(v):
    """v with its type, and a tuple's entries with theirs."""
    return (type(v), tuple(map(typed_value, v)) if type(v) is tuple else v)


def typed(x):
    """The coefficients of x with their types, so a non-canonical value
    shows."""
    return {k: typed_value(v) for k, v in x.coeffs.items()}


def unpacked_reference(g, d):
    """The block of degree d held to the unpacked step, which sums the
    columns a vector touches by ``_accumulate``."""
    block = DegreeBlock(g, d)
    block.packed = None
    return block


def sparse_cells(draw):
    """Random cells of ``PACK_BASIS``, each degree's block under a quarter
    nonzero, so that no block packs."""
    cells = []
    for labels in PACK_BASIS.degrees:
        square = [(l, m) for l in labels for m in labels]
        if square:
            cells += sorted(draw(st.sets(st.sampled_from(square),
                                         max_size=(len(square) - 1) // 4)))
    return cells


FRACTIONS = st.fractions(-50, 50, max_denominator=12)
PACKED_RINGS = [
    (ZZ, st.integers(-2**100, 2**100)),
    (QQ, FRACTIONS),
    (ModRing(6), st.integers(0, 5)),
    (ModRing(7), st.integers(-30, 30)),
    (ZQ3, st.tuples(st.integers(-2**70, 2**70), st.integers(-2**70, 2**70))),
    (QQ_Q, st.tuples(*[st.fractions(-9, 9, max_denominator=6)] * 2)),
    # a modulus of degree 1, whose values are 1-tuples
    (PolyQuotientRing(QQ, [Fraction(-1, 2), 1]),
     st.tuples(st.fractions(-9, 9, max_denominator=6))),
]


@pytest.mark.parametrize("ring, entries", PACKED_RINGS,
                         ids=[repr(r) for r, _ in PACKED_RINGS])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_packed_step_matches_the_row_reference(ring, entries, data):
    """On dense blocks, and on random blocks under a quarter nonzero, the
    chains are the iterated map, and every chain level is the one that the
    unpacked step finds.  Batches that repeat vectors map to the images of
    the vectors one at a time, position by position."""
    values = data.draw(st.lists(entries, min_size=len(PACK_CELLS),
                                max_size=len(PACK_CELLS)))
    cells = sparse_cells(data.draw) if data.draw(st.booleans()) else PACK_CELLS
    images = {l: {} for l in PACK_BASIS.labels}
    for (l, m), v in zip(cells, values):
        images[l][m] = v
    g = GradedMap(PACK_BASIS, ring, {l: Element(PACK_BASIS, ring, c)
                                     for l, c in images.items()})
    for d, labels in enumerate(PACK_BASIS.degrees):
        block, unpacked = DegreeBlock(g, d), unpacked_reference(g, d)
        n = len(labels)
        nonzeros = sum(len(g.images[l].coeffs) for l in labels)
        assert (block.packed is not None) == (_dense(nonzeros, n) and n >= 3)
        assert block._step([([block.zero] * n, [])]) == [([block.zero] * n, [])]
        for label in labels:
            walked = [typed(y) for y in block_chain(block, label, 6)]
            expected = [Element.basis_vector(PACK_BASIS, ring, label)]
            while len(expected) < 6 and not expected[-1].is_zero():
                expected.append(g._apply(expected[-1]))
            if expected[-1].is_zero():
                expected.pop()
            assert walked == [typed(y) for y in expected]
        # every image and square of an image of the degree, as one batch
        # and one at a time
        ys = [y for label in labels
              for x in [g._apply(Element.basis_vector(PACK_BASIS, ring, label))]
              for y in (x, g._apply(x))]
        ys += ys[::-1]  # every vector repeated, so a batch maps it once
        expected = [typed(g._apply(y)) for y in ys]
        assert [typed(x) for x in block.mapped(ys)] == expected
        assert [typed(g(y)) for y in ys] == expected
        # g(y) maps through the one block that g keeps for the degree,
        # built on first use, whether it packs or not
        assert (d in g._blocks) == any(not y.is_zero() for y in ys)
        kept = g.block(d)
        assert g.block(d) is kept
        assert (kept.packed is None) == (block.packed is None)
        assert [[(j, typed(block.box(k, j, y, s))) for j, y, s in level]
                for k, level in enumerate(itertools.islice(block.levels(), 5))] == [
            [(j, typed(unpacked.box(k, j, y, s))) for j, y, s in level]
            for k, level in enumerate(itertools.islice(unpacked.levels(), 5))]
        # each level with its vectors repeated, as one batch through the
        # packed and the unpacked step (which lists a support in the order
        # of its sum), against each vector stepped alone
        for level in itertools.islice(block.levels(), 5):
            batch = [(y, s) for _, y, s in level]
            batch += batch[::-1]
            alone = [(y, sorted(s)) for y, s in
                     (block._step([vector])[0] for vector in batch)]
            for stepped in (block, unpacked):
                assert [(y, sorted(s)) for y, s in stepped._step(batch)] == alone
    # an element over several degrees is mapped label by label
    mixed = Element(PACK_BASIS, ring, {"1": values[0], "x": values[1],
                                       "p": values[-1]})
    assert typed(g(mixed)) == typed(g._apply(mixed))


@pytest.mark.parametrize("ring", [ZZ, QQ, ModRing(6), ModRing(7)], ids=str)
def test_sparse_and_tuple_blocks_step_through_accumulate(ring):
    """A block under a quarter nonzero does not pack: its steps sum
    columns by ``_accumulate``.  A dense block over a quotient whose
    modulus has a non-integer coefficient packs, and its chains are the
    iterated map.  An empty degree has no chain levels."""
    vec = lambda l, c: Element(PACK_BASIS, ring, {l: c})
    zero = Element.zero(PACK_BASIS, ring)
    images = {l: zero for l in PACK_BASIS.labels}
    images.update(p=vec("q", 3), q=vec("r", 3), r=vec("p", 2))
    g = GradedMap(PACK_BASIS, ring, images)
    block = DegreeBlock(g, 3)
    assert not _dense(sum(len(g.images[l].coeffs) for l in block.labels), 5)
    assert block.packed is None
    y = Element.basis_vector(PACK_BASIS, ring, "p")
    walked = block_chain(block, "p", 5)
    for x in walked:
        assert typed(x) == typed(y)
        y = g._apply(y)
    assert len(walked) == 5 or y.is_zero()
    dense = GradedMap(PACK_BASIS, QHALF, {
        l: Element(PACK_BASIS, QHALF, {m: QHALF.element([Fraction(i - j, 3), 1])
                                       for j, m in enumerate(labels)})
        for labels in PACK_BASIS.degrees for i, l in enumerate(labels)})
    tuple_block = DegreeBlock(dense, 3)
    assert tuple_block.packed is not None
    for label in tuple_block.labels:
        y = Element.basis_vector(PACK_BASIS, QHALF, label)
        walked = block_chain(tuple_block, label, 5)
        assert len(walked) == 5
        for x in walked:
            assert typed(x) == typed(y)
            y = dense._apply(y)
    assert list(DegreeBlock(g, 1).levels()) == []


def difference_block():
    """The packed degree-1 block of g(x) = -g(y) = x - y, g(z) = 0 over
    ``Z`` (three labels, the fewest that pack)."""
    basis = GradedBasis([["1"], ["x", "y", "z"]])
    image = lambda c: Element(basis, ZZ, c)
    g = GradedMap(basis, ZZ, {"1": image({}), "x": image({"x": 1, "y": -1}),
                              "y": image({"x": -1, "y": 1}), "z": image({})})
    block = DegreeBlock(g, 1)
    assert block.packed is not None
    return block


WIDTH_BOUNDS = [2**7 - 1, 2**8 - 1, 2**15 - 1, 2**16 - 1,
                2**63 - 1, 2**64 - 1, 2**71 - 1, 2**72 - 1]


@pytest.mark.parametrize("bound", WIDTH_BOUNDS)
def test_packed_step_digit_at_the_width_bound(bound):
    """g(x) = -g(y) = x - y and the vector a x - b y with a + b = bound:
    both digits of its image are +-bound = max|entry| * ||y||_1, which
    fills its slot exactly for bounds 2**(8k - 1) - 1 and needs a wider
    slot for bounds 2**(8k) - 1."""
    a = bound // 3
    assert difference_block()._step([([a, a - bound, 0], [0, 1])]) == [
        ([bound, -bound, 0], [0, 1])]


@pytest.mark.parametrize("bound", WIDTH_BOUNDS)
def test_level_batch_mixing_the_width_bound_decodes_exactly(bound):
    """One codec serves a whole batch, so its slots must hold the largest
    digit of any vector in it: a batch whose vector at the width bound
    sits between small ones (and a zero vector) decodes exactly, also
    through a block whose kept packing was narrower."""
    a = bound // 3
    batch = [([3, -1, 0], [0, 1]), ([a, a - bound, 0], [0, 1]),
             ([0, 0, 0], []), ([1, 0, 0], [0])]
    images = [([4, -4, 0], [0, 1]), ([bound, -bound, 0], [0, 1]),
              ([0, 0, 0], []), ([1, -1, 0], [0, 1])]
    assert difference_block()._step(batch) == images
    block = difference_block()
    assert block._step(batch[:1]) == images[:1] and block.packed[0] == 1
    assert block._step(batch) == images


@pytest.mark.parametrize("bound", WIDTH_BOUNDS)
@pytest.mark.parametrize("ring", [ZQ3, QQ_Q], ids=repr)
def test_packed_quotient_step_digit_at_the_width_bound(ring, bound):
    """g(x) = -g(y) = q x - q y and the vector a q x - b q y with
    a + b = bound (g(z) = 0): each image is +-bound q^2 mod f, the sum of
    a and a - bound times the packed columns of q g(x) and q g(y), whose
    entries are 0 and +-1, so a digit is +-bound and fills its slot
    exactly for bounds 2**(8k - 1) - 1."""
    basis = GradedBasis([["1"], ["x", "y", "z"]])
    q, minus_q = ring.element([0, 1]).value, ring.element([0, -1]).value
    image = lambda c: Element(basis, ring, c)
    g = GradedMap(basis, ring, {"1": image({}), "x": image({"x": q, "y": minus_q}),
                                "y": image({"x": minus_q, "y": q}), "z": image({})})
    block = DegreeBlock(g, 1)
    assert block.packed is not None
    a = bound // 3
    top, zero = ring._reduce([0, 0, bound]), ring._zero
    assert block._step([([(0, a), (0, a - bound), zero], [0, 1])]) == [
        ([top, ring._neg(top), zero], [0, 1])]


def test_fqsym_levels_step_each_distinct_vector_once(monkeypatch):
    """The degree-5 chain levels of id - S^2 on FQSym over Z collapse:
    the three steps take batches of 118, 118 and 96 vectors, of which 94,
    48 and 8 are distinct, and each distinct vector is mapped once, with
    one product per entry of its support."""
    block = fqsym(ZZ, 5).id_minus_antipode_squared().block(5)
    assert block.packed is not None
    batches, products = [], [0]
    step, mul = DegreeBlock._step, gmod.mul

    def spy(self, vectors):
        batches.append(vectors)
        return step(self, vectors)

    def counted(a, b):
        products[0] += 1
        return mul(a, b)

    monkeypatch.setattr(DegreeBlock, "_step", spy)
    monkeypatch.setattr(gmod, "mul", counted)
    assert [len(level) for level in block.levels()] == [120, 118, 118, 96]
    assert [len(batch) for batch in batches] == [118, 118, 96]
    distinct = [{tuple(y): support for y, support in batch} for batch in batches]
    assert [len(vectors) for vectors in distinct] == [94, 48, 8]
    assert products[0] == sum(len(support) for vectors in distinct
                              for support in vectors.values())


def test_packed_step_keeps_one_packing_at_the_widest_slot():
    """A batch that needs a wider slot repacks the columns; a later batch
    that fits a narrower one decodes them at the wider slot, exactly."""
    block = difference_block()
    assert block._step([([3, -1, 0], [0, 1])]) == [([4, -4, 0], [0, 1])]
    assert block.packed[0] == 1
    big = 2**100
    assert block._step([([big, -big, 0], [0, 1])]) == [
        ([2 * big, -2 * big, 0], [0, 1])]
    wide, _, columns = block.packed
    assert wide > 8 and len(columns) == 3
    assert block._step([([3, -1, 0], [0, 1]), ([5, 5, 0], [0, 1])]) == [
        ([4, -4, 0], [0, 1]), ([0, 0, 0], [])]
    assert block.packed[0] == wide and block.packed[2] is columns
