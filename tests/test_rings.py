"""Coefficient ring arithmetic: canonical forms, axioms, field gating."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfcheck.errors import StructuralError, UnsupportedRingError
from hopfcheck.rings import (QQ, ZZ, ModRing, PolyQuotientRing, binomial,
                             cyclotomic_ring, irreducible_over_q, is_prime,
                             ring_from_string)

EISENSTEIN = cyclotomic_ring(3)  # Z[q]/(1 + q + q^2)
QEISENSTEIN = PolyQuotientRing(QQ, [Fraction(1), Fraction(1), Fraction(1)],
                               irreducible=True)
RINGS = [ZZ, QQ, ModRing(5), ModRing(6), EISENSTEIN, QEISENSTEIN]


def elements(ring):
    return st.integers(min_value=-30, max_value=30).map(ring.embed)


# --- basic arithmetic ------------------------------------------------------

def test_integer_add():
    assert ZZ.embed(2) + ZZ.embed(3) == ZZ.embed(5)


def test_mod5_mul():
    R = ModRing(5)
    assert R.embed(3) * R.embed(4) == R.embed(2)


def test_eisenstein_q_squared():
    q = EISENSTEIN.element([0, 1])
    assert q * q == -q - EISENSTEIN.one


def test_eisenstein_root_of_unity():
    q = EISENSTEIN.element([0, 1])
    assert q ** 3 == EISENSTEIN.one
    assert EISENSTEIN.one + q + q * q == EISENSTEIN.zero


def test_embed_int():
    assert ZZ.embed(1) == ZZ.one
    assert ModRing(5).embed(7) == ModRing(5).embed(2)
    assert EISENSTEIN.embed(-1) == -EISENSTEIN.one


def test_rational_canonical():
    assert QQ.embed(2).value / 4 == Fraction(1, 2)
    a = QQ.element(Fraction(2, 4))
    assert a.value == Fraction(1, 2)


def test_mixed_ring_operands_rejected():
    with pytest.raises(StructuralError):
        ZZ.one + QQ.one
    with pytest.raises(StructuralError):
        ModRing(5).one * ModRing(7).one


# --- field gating ----------------------------------------------------------

def test_is_field():
    assert QQ.is_field
    assert not ZZ.is_field
    assert ModRing(7).is_field
    assert not ModRing(6).is_field
    assert not EISENSTEIN.is_field
    assert PolyQuotientRing(QQ, [Fraction(1), Fraction(1), Fraction(1)],
                            irreducible=True).is_field


def test_field_inverse():
    R = ModRing(7)
    for n in range(1, 7):
        a = R.embed(n)
        assert a * a.inverse() == R.one
    half = QQ.embed(2).inverse()
    assert half.value == Fraction(1, 2)


def test_quotient_field_inverse():
    R = PolyQuotientRing(QQ, [Fraction(1), Fraction(1), Fraction(1)],
                         irreducible=True)
    q = R.element([0, 1])
    inv = q.inverse()
    assert q * inv == R.one


def test_no_inverse_outside_fields():
    with pytest.raises(UnsupportedRingError):
        ZZ.embed(2).inverse()


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)


# --- ring axioms, randomized ----------------------------------------------

@pytest.mark.parametrize("ring", RINGS, ids=repr)
@given(data=st.data())
def test_ring_axioms(ring, data):
    a = data.draw(elements(ring))
    b = data.draw(elements(ring))
    c = data.draw(elements(ring))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ring.zero == a
    assert a * ring.one == a
    assert a + (-a) == ring.zero
    assert a - b == a + (-b)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
@given(data=st.data())
def test_canonicalization_idempotent(ring, data):
    a = data.draw(elements(ring))
    assert ring.element(a.value) == a


# --- the canonical form of Q ----------------------------------------------

# canonical raw values of Q: ints, and Fractions with denominator > 1
RATIONALS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=60)
    .filter(lambda x: x.denominator > 1))


def assert_canonical_rational(value, expected):
    """value equals the Fraction ``expected`` and is an int exactly when
    it is integral, else a Fraction; never a float or a bool."""
    assert value == expected
    assert type(value) is (int if expected.denominator == 1 else Fraction)


@given(a=RATIONALS, b=RATIONALS, xs=st.lists(RATIONALS, max_size=6),
       ys=st.lists(RATIONALS, max_size=6), k=st.integers(1, 5))
def test_rational_raw_values_are_ints_exactly_when_integral(a, b, xs, ys, k):
    A, B = Fraction(a), Fraction(b)
    assert_canonical_rational(QQ._add(a, b), A + B)
    assert_canonical_rational(QQ._mul(a, b), A * B)
    assert_canonical_rational(QQ._neg(a), -A)
    if a != 0:
        assert_canonical_rational(QQ._inv(a), 1 / A)
    ys = ys + [0] * (len(xs) - len(ys))
    assert_canonical_rational(
        QQ._dot(xs, ys), sum(map(Fraction.__mul__, map(Fraction, xs), ys)))
    assert_canonical_rational(QQ._canon(A), A)
    assert_canonical_rational(QQ._canon(a), A)
    # unreduced text, such as "4/2"
    text = f"{A.numerator * k}/{A.denominator * k}"
    assert_canonical_rational(QQ.parse_value(text).value, A)
    assert_canonical_rational(QQ.parse_value(str(a)).value, A)
    assert_canonical_rational(QQ.embed(A.numerator).value, Fraction(A.numerator))


@pytest.mark.parametrize("ring", [PolyQuotientRing(QQ, [1, 0, 1],
                                                   irreducible=True),
                                  QEISENSTEIN], ids=repr)
@given(a=RATIONALS, b=RATIONALS)
def test_quotient_inverse_holds_canonical_rationals(ring, a, b):
    """``_inv`` itself returns canonical base values; ``_mul`` would
    re-normalize them, so the raw result is checked directly."""
    if a == 0 and b == 0:
        return
    inv = ring._inv((a, b))
    for c in inv:
        assert type(c) is type(QQ._canon(c)) and c == QQ._canon(c)
    assert ring._mul((a, b), inv) == ring._one


# --- quotient-ring kernels against schoolbook arithmetic --------------------

# (ring, entries): Z[q]/(1 + q + q^2), a degree-1 modulus, a degree-3
# modulus with non-unit coefficients, and Q[q]/(1 + q^2) over Fractions
QUOTIENT_KERNELS = [
    (PolyQuotientRing(ZZ, [1, 1, 1]), st.integers(-10 ** 6, 10 ** 6)),
    (PolyQuotientRing(ZZ, [3, 1]), st.integers(-50, 50)),
    (PolyQuotientRing(ZZ, [2, -3, 0, 1]), st.integers(-50, 50)),
    (PolyQuotientRing(QQ, [1, 0, 1]),
     st.fractions(min_value=-20, max_value=20, max_denominator=9)),
]
quotient_ids = [repr(ring) for ring, _ in QUOTIENT_KERNELS]


def canonical(x):
    """The canonical raw base value of the int or Fraction x."""
    return x.numerator if Fraction(x).denominator == 1 else x


def schoolbook_product(a, b):
    """The product of two coefficient lists, low degree first, unreduced."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    return out


def schoolbook_residue(ring, poly):
    """``poly`` mod the ring's monic modulus, by long division over
    Fractions: the highest term c q^n is replaced by c q^(n - e) times
    q^e = -(f_0 + ... + f_(e-1) q^(e-1))."""
    mod = [Fraction(c) for c in ring.modulus]
    e = len(mod) - 1
    rem = [Fraction(c) for c in poly]
    while len(rem) > e:
        c = rem.pop()
        for i in range(e):
            rem[len(rem) - e + i] -= c * mod[i]
    return rem + [Fraction(0)] * (e - len(rem))


def assert_residue(ring, value, expected):
    """value is the canonical raw value of the residue ``expected``: a
    tuple of deg f base values, each an int when integral."""
    assert type(value) is tuple and len(value) == ring.degree
    for v, x in zip(value, expected):
        assert_canonical_rational(v, x)


@pytest.mark.parametrize("ring, entries", QUOTIENT_KERNELS, ids=quotient_ids)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_quotient_kernels_match_schoolbook_arithmetic(ring, entries, data):
    values = st.tuples(*[entries.map(canonical)] * ring.degree)
    a, b = data.draw(values), data.draw(values)
    assert_residue(ring, ring._mul(a, b),
                   schoolbook_residue(ring, schoolbook_product(a, b)))
    # a constant factor on either side
    c = (data.draw(entries.map(canonical)),) + (0,) * (ring.degree - 1)
    for x, y in ((c, b), (b, c)):
        assert_residue(ring, ring._mul(x, y),
                       schoolbook_residue(ring, schoolbook_product(x, y)))
    assert_residue(ring, ring._add(a, b),
                   [Fraction(x) + Fraction(y) for x, y in zip(a, b)])
    assert_residue(ring, ring._neg(a), [-Fraction(x) for x in a])
    pairs = data.draw(st.lists(st.tuples(values, values), max_size=6))
    total = [Fraction(0)] * (2 * ring.degree - 1)
    for u, v in pairs:
        total = [s + t for s, t in zip(total, schoolbook_product(u, v))]
    assert_residue(ring, ring._dot([u for u, _ in pairs], [v for _, v in pairs]),
                   schoolbook_residue(ring, total))
    # _canon takes any length and non-canonical Fractions such as 4/2
    poly = data.draw(st.lists(entries, max_size=3 * ring.degree + 1))
    assert_residue(ring, ring._canon(poly), schoolbook_residue(ring, poly))
    n = data.draw(st.integers(-10 ** 30, 10 ** 30))
    assert_residue(ring, ring._embed_int(n), schoolbook_residue(ring, [n]))


@pytest.mark.parametrize("ring, entries", QUOTIENT_KERNELS, ids=quotient_ids)
def test_quotient_dot_of_empty_and_zero_inputs(ring, entries):
    zero = (0,) * ring.degree
    assert ring._zero == zero
    for a, b in (([], []), ([zero] * 3, [ring._one] * 3),
                 ([ring._one] * 2, [zero] * 2), ([zero], [zero])):
        assert_residue(ring, ring._dot(a, b), [Fraction(0)] * ring.degree)


@pytest.mark.parametrize("ring, entries", QUOTIENT_KERNELS + [
    (PolyQuotientRing(QQ, [Fraction(1, 2), 0, 1]),
     st.fractions(min_value=-20, max_value=20, max_denominator=9))],
    ids=quotient_ids + ["Q[q]/(1/2,0,1)"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_quotient_shifts_are_the_products_by_powers_of_q(ring, entries, data):
    """``_shifts`` of values laid end to end lists, for each s < e, the
    entries of every q^s v mod f, in order: ints stay ints under an
    integer f, and a modulus with a fraction gives canonical values."""
    e = ring.degree
    values = data.draw(st.lists(st.tuples(*[entries.map(canonical)] * e),
                                max_size=4))
    shifts = ring._shifts([c for v in values for c in v])
    assert len(shifts) == e
    for s, got in enumerate(shifts):
        expected = [c for v in values
                    for c in schoolbook_residue(ring, [0] * s + list(v))]
        assert got == expected
        if any(c.__class__ is not int for c in ring.modulus) or all(
                c.__class__ is int for v in values for c in v):
            for v, x in zip(got, expected):
                assert_canonical_rational(v, x)


# --- binomial --------------------------------------------------------------

def test_binomial():
    assert binomial(3, 1) == 3
    assert binomial(5, 2) == 10
    assert binomial(4, 6) == 0
    assert binomial(4, -1) == 0
    assert binomial(0, 0) == 1


# --- grammar ---------------------------------------------------------------

def test_ring_grammar():
    assert ring_from_string("Z") is ZZ
    assert ring_from_string("Q") is QQ
    assert ring_from_string("Z/5") == ModRing(5)
    R = ring_from_string("Z[q]/(1,1,1)")
    q = R.element([0, 1])
    assert q ** 3 == R.one


# modulus -> whether Q[q]/(modulus) is decided a field: True, False (a
# rational root), None (undecided)
QUOTIENT_FIELDS = {
    "1,0,1": True,        # q^2 + 1
    "-1,0,1": False,      # q^2 - 1 = (q - 1)(q + 1)
    "1/4,0,1": True,      # q^2 + 1/4
    "-1/4,0,1": False,    # root 1/2
    "-2,0,0,1": True,     # q^3 - 2
    "-8,0,0,1": False,    # root 2
    "5,0,0,0,1": None,    # degree 4: not decided
}


@pytest.mark.parametrize("modulus", QUOTIENT_FIELDS)
def test_quotient_declared_a_field_exactly_when_irreducible(modulus):
    text = f"Q[q]/({modulus})"
    ring = ring_from_string(text)
    assert irreducible_over_q(ring.modulus) is QUOTIENT_FIELDS[modulus]
    assert ring.is_field == (QUOTIENT_FIELDS[modulus] is True)
    assert repr(ring) == text
    if ring.is_field:
        x = ring.element([Fraction(2, 3), 1])
        assert x * x.inverse() == ring.one


def test_quotient_over_z_is_never_a_field():
    ring = ring_from_string("Z[q]/(1,0,1)")
    assert not ring.is_field
    assert repr(ring) == "Z[q]/(1,0,1)"


def test_rational_root_test_on_rational_coefficients():
    # (q - 2/3)(q^2 + 1) and (q - 1/2)(q + 3)(q - 5) have rational roots;
    # q^3 + q/2 + 1/3 and q^2 - 2 have none
    assert irreducible_over_q([Fraction(-2, 3), 1, Fraction(-2, 3), 1]) is False
    assert irreducible_over_q([Fraction(15, 2), -13, Fraction(3, 2), 1]) is False
    assert irreducible_over_q([Fraction(1, 3), Fraction(1, 2), 0, 1]) is True
    assert irreducible_over_q([-2, 0, 1]) is True
    assert irreducible_over_q([0, 1, 1]) is False  # q(q + 1)
    assert irreducible_over_q([7, 1]) is True


def test_ring_grammar_rejects_garbage():
    for bad in ("Z/bad", "Z/1", "R", "Z[q]/(1,1,2)", ""):
        with pytest.raises(StructuralError):
            ring_from_string(bad)


def test_format_parse_roundtrip():
    for ring in RINGS:
        for n in (-7, 0, 1, 13):
            a = ring.embed(n)
            assert ring.parse_value(ring.format_value(a.value)) == a
