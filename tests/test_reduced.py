"""Reduced coproduct layer: formula, factorization, degree bound, primitives."""

import pytest

from hopfcheck.errors import UnsupportedRingError
from hopfcheck.hopf import HopfPresentation
from hopfcheck.reduced import (delta_kernel_vectors, idbar, is_primitive,
                               random_elements, reduced_coproduct,
                               reduced_coproduct_label,
                               verify_delta_degree_bound,
                               verify_delta_factorization,
                               verify_prim_characterization)
from hopfcheck.rings import QQ, ZZ, ModRing
from hopfcheck.zoo import free_example_abc, shuffle_algebra, tensor_algebra


@pytest.fixture(scope="module")
def abc():
    return free_example_abc(ZZ, 4)


def test_idbar(abc):
    x = abc.unit().scale(ZZ.embed(3)) + abc.element("a")
    assert idbar(abc, x) == abc.element("a")
    assert idbar(abc, abc.unit()).is_zero()


def test_delta_of_c_is_a_tensor_b(abc):
    assert reduced_coproduct_label(abc, "c") == \
        abc.element("a").tensor(abc.element("b"))


def test_delta_kills_unit_and_primitives(abc):
    assert reduced_coproduct(abc, abc.unit()).is_zero()
    assert reduced_coproduct(abc, abc.element("a")).is_zero()
    assert not reduced_coproduct(abc, abc.element("ab")).is_zero()


def test_delta_of_word(abc):
    # Delta(ab) = Delta(a)Delta(b) leaves the middle terms a(x)b + b(x)a
    a, b = abc.element("a"), abc.element("b")
    assert reduced_coproduct_label(abc, "ab") == a.tensor(b) + b.tensor(a)


def test_is_primitive(abc):
    assert is_primitive(abc, abc.element("a"))
    assert is_primitive(abc, abc.element("a") - abc.element("b"))
    assert not is_primitive(abc, abc.element("c"))
    assert not is_primitive(abc, abc.unit())
    # the commutator of two primitives is again primitive
    assert is_primitive(abc, abc.element("ab") - abc.element("ba"))


def test_factorization_suite(abc):
    assert verify_delta_factorization(abc).ok()


def test_degree_bound_suite(abc):
    assert verify_delta_degree_bound(abc).ok()


def test_prim_characterization_over_rings():
    for ring in (ZZ, QQ, ModRing(5)):
        H = free_example_abc(ring, 3)
        rep = verify_prim_characterization(H)
        assert rep.ok()
        by_claim = {c.claim: c.status for c in rep.checks}
        if ring.is_field:
            assert by_claim["kernel-primitive"] == "pass"
        else:
            assert by_claim["kernel-primitive"] == "not-checked"


def test_delta_kernel_vectors_are_primitive_or_unit():
    H = tensor_algebra(2, QQ, 3)
    for v in delta_kernel_vectors(H):
        w = idbar(H, v)
        assert is_primitive(H, w) or w.is_zero()


def test_delta_kernel_vectors_reject_a_non_field_before_any_coproduct(
        monkeypatch):
    H = tensor_algebra(2, ZZ, 3)

    def no_coproduct(self, label):
        raise AssertionError(f"coproduct of {label!r} computed")

    monkeypatch.setattr(HopfPresentation, "coproduct_of_label", no_coproduct)
    with pytest.raises(UnsupportedRingError):
        delta_kernel_vectors(H)


@pytest.mark.parametrize("ring", ["Q", "Z/5", "Z"])
def test_reduced_coproduct_computed_once_per_label(monkeypatch, tmp_path, ring):
    # the reduced and theorem1 suites read delta of every label several
    # times: the degree bound, the membership and kernel checks, and the
    # theorem's instance; each label's delta is computed once
    from hopfcheck import cli, reduced

    computed = []
    compute = reduced.reduced_coproduct

    def counted(H, x):
        if len(x.coeffs) == 1 and x.coeff(*x.coeffs) == H.ring.one:
            computed.extend(x.coeffs)
        return compute(H, x)

    monkeypatch.setattr(reduced, "reduced_coproduct", counted)
    code = cli.main(["verify", "--algebra", "tensor", "--rank", "2",
                     "--ring", ring, "--maxdeg", "4", "--suite", "reduced",
                     "--suite", "theorem1", "--out", str(tmp_path / "r")])
    assert code == 0
    labels = tensor_algebra(2, QQ, 4).basis.labels
    assert sorted(computed) == sorted(labels)


def test_shuffle_kernel_matches_lyndon_count():
    # dimension of the degree-d primitives of the rank-2 shuffle algebra over Q
    # is 0 for d >= 2 on the deconcatenation side only in the dual; here the
    # shuffle algebra's primitives in degree 2 are spanned by [xy - yx]... no:
    # deconcatenation delta(xy) = x (x) y, so kernel in degree 2 is trivial.
    H = shuffle_algebra(2, QQ, 2)
    degree2 = [v for v in delta_kernel_vectors(H)
               if v.degrees() and max(v.degrees()) == 2]
    assert degree2 == []


def test_random_elements_reproducible(abc):
    xs = random_elements(abc, count=5, seed=42)
    ys = random_elements(abc, count=5, seed=42)
    assert xs == ys
    assert xs != random_elements(abc, count=5, seed=43)
