"""Presentations by structure constants, antipode recursion, axiom checks."""

import pytest

from hopfcheck.errors import (StructuralError, TruncationError,
                              UnsupportedRingError)
from hopfcheck.gmod import Tensor2Element
from hopfcheck.hopf import HopfPresentation
from hopfcheck.rings import QQ, ZZ
from hopfcheck.zoo import UNIT, free_example_abc, fqsym, taft


@pytest.fixture(scope="module")
def abc():
    return free_example_abc(ZZ, 4)


@pytest.fixture(scope="module")
def fq():
    return fqsym(ZZ, 4)


# --- evaluation ------------------------------------------------------------

def test_unit_is_neutral(abc):
    x = abc.element("ab") + abc.element("c").scale(ZZ.embed(2))
    assert abc.product(abc.unit(), x) == x
    assert abc.product(x, abc.unit()) == x


def test_free_product_is_concatenation(abc):
    assert abc.product(abc.element("a"), abc.element("b")) == abc.element("ab")


def test_fqsym_degree_one_square(fq):
    f1 = fq.element("1")
    assert fq.product(f1, f1) == fq.element("12") + fq.element("21")


def test_coproduct_of_unit_and_counit(abc):
    assert abc.coproduct_of_label(UNIT) == abc.unit().tensor(abc.unit())
    assert abc.counit_of_label(UNIT) == ZZ.one
    assert abc.counit_of_label("a") == ZZ.zero
    assert abc.counit_of_label("c") == ZZ.zero


def test_coproduct_of_c(abc):
    one = abc.unit()
    c, a, b = abc.element("c"), abc.element("a"), abc.element("b")
    assert abc.coproduct(c) == c.tensor(one) + a.tensor(b) + one.tensor(c)


def test_fqsym_coproduct_21(fq):
    # deconcatenate 21 into ()|21, 2|1, 21|() and standardize the parts
    one = fq.unit()
    f21 = fq.element("21")
    f1 = fq.element("1")
    assert fq.coproduct(f21) == (f21.tensor(one) + f1.tensor(f1)
                                 + one.tensor(f21))


def test_truncation_is_a_hard_error(abc):
    with pytest.raises(TruncationError):
        abc.product(abc.element("abab"), abc.element("a"))


def test_product_homogeneity_enforced():
    H = free_example_abc(ZZ, 3)
    broken = HopfPresentation(
        "broken", H.basis, ZZ,
        lambda l1, l2: H.element("a") if (l1, l2) == ("a", "b")
        else H.product_of_labels(l1, l2),
        H.coproduct_of_label, {UNIT: ZZ.one}, UNIT)
    with pytest.raises(StructuralError):
        broken.product_of_labels("a", "b")


# --- connectedness ---------------------------------------------------------

def test_is_connected(abc, fq):
    assert abc.is_connected()
    assert fq.is_connected()
    assert not taft(3).is_connected()


def test_nonconnected_needs_explicit_antipode():
    T = taft(3)
    bare = HopfPresentation(T.name, T.basis, T.ring, T.product_of_labels,
                            T.coproduct_of_label, T._counit0, T.unit_label,
                            product_total=True)
    with pytest.raises(UnsupportedRingError):
        bare.antipode()


# --- antipode --------------------------------------------------------------

def test_antipode_of_primitive_is_negation(abc):
    S = abc.antipode()
    assert S(abc.element("a")) == -abc.element("a")
    assert S(abc.element("b")) == -abc.element("b")


def test_antipode_of_c(abc):
    S = abc.antipode()
    assert S(abc.element("c")) == abc.element("ab") - abc.element("c")


def test_antipode_squared_of_c(abc):
    S = abc.antipode()
    S2 = S.compose(S)
    assert S2(abc.element("c")) == (abc.element("ba") - abc.element("ab")
                                    + abc.element("c"))


def test_antipode_fixes_unit(abc):
    assert abc.antipode()(abc.unit()) == abc.unit()


def test_fqsym_antipode_degree_two(fq):
    S = fq.antipode()
    assert S(fq.element("12")) == fq.element("21")
    assert S(fq.element("21")) == fq.element("12")


def test_antipode_is_graded(abc):
    S = abc.antipode()
    for label in abc.basis.labels:
        img = S.images[label]
        assert img.degrees() <= {abc.degree_of(label)}


def test_oracles_agree(abc, fq):
    for H in (abc, fq):
        S, T = H.antipode(), H.antipode_oracle()
        assert all(S.images[l] == T.images[l] for l in H.basis.labels)


# --- verifiers -------------------------------------------------------------

def test_bialgebra_axioms_pass(abc, fq):
    assert abc.verify_bialgebra().ok()
    assert fq.verify_bialgebra().ok()


def test_corrupted_coproduct_detected(abc):
    def bad_coproduct(label):
        d = abc.coproduct_of_label(label)
        if label == "c":
            d = d - abc.element("a").tensor(abc.element("b"))
        return d

    broken = HopfPresentation("broken", abc.basis, ZZ, abc.product_of_labels,
                              bad_coproduct, {UNIT: ZZ.one}, UNIT)
    rep = broken.verify_bialgebra()
    assert not rep.ok()
    assert {"coassociativity", "coproduct-multiplicative"} <= {
        c.claim for c in rep.failures()}


def test_antipode_axioms_pass(abc, fq):
    assert abc.verify_antipode_axioms().ok()
    assert fq.verify_antipode_axioms().ok()


def test_identity_is_not_an_antipode(fq):
    from hopfcheck.gmod import GradedMap
    rep = fq.verify_antipode_axioms(S=GradedMap.identity(fq.basis, fq.ring))
    assert not rep.ok()


def test_unit_label_must_have_degree_zero(abc):
    with pytest.raises(StructuralError):
        HopfPresentation("bad", abc.basis, ZZ, abc.product_of_labels,
                         abc.coproduct_of_label, {}, "a")


def test_off_degree_coproduct_rejected(abc):
    def bad(label):
        if label == "a":
            return Tensor2Element(abc.basis, ZZ, {("a", "a"): ZZ.one})
        return abc.coproduct_of_label(label)

    broken = HopfPresentation("bad", abc.basis, ZZ, abc.product_of_labels,
                              bad, {UNIT: ZZ.one}, UNIT)
    with pytest.raises(StructuralError):
        broken.coproduct_of_label("a")
