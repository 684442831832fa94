"""Reduced coproduct layer: formula, factorization, degree bound, primitives."""

import json

import pytest

from hopfcheck.errors import UnsupportedRingError
from hopfcheck.gmod import kernel_vectors
from hopfcheck.reduced import (delta_kernel_vectors, idbar, is_primitive,
                               random_elements, reduced_coproduct,
                               reduced_coproduct_label,
                               verify_delta_degree_bound,
                               verify_delta_factorization,
                               verify_prim_characterization)
from hopfcheck.rings import QQ, ZZ, ModRing
from hopfcheck.specfile import export_presentation, parse_presentation
from hopfcheck.verify import check_hypotheses, instance_from_hopf
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
        by_claim = {c.claim: (c.status, c.witness) for c in rep.checks}
        if ring.is_field:
            assert by_claim["kernel-primitive"] == ("pass", None)
        else:
            # the reason theorem1's kernel check gives too
            assert by_claim["kernel-primitive"] == (
                "not-checked", f"ring {ring} is not a field")


def test_delta_kernel_vectors_are_primitive_or_unit():
    H = tensor_algebra(2, QQ, 3)
    for v in delta_kernel_vectors(H):
        w = idbar(H, v)
        assert is_primitive(H, w) or w.is_zero()


def test_delta_kernel_vectors_reject_a_non_field_before_any_coproduct(
        monkeypatch):
    H = tensor_algebra(2, ZZ, 3)

    def no_coproduct(i):
        raise AssertionError(f"coproduct of {H.basis.labels[i]!r} computed")

    monkeypatch.setattr(H, "_coproduct_rule", no_coproduct)
    with pytest.raises(UnsupportedRingError):
        delta_kernel_vectors(H)


@pytest.mark.parametrize("ring", ["Q", "Z/5", "Z"])
def test_reduced_coproduct_computed_once_per_label(monkeypatch, tmp_path, ring):
    # the reduced and theorem1 suites read delta of every label several
    # times: the degree bound, the membership and kernel checks, and the
    # theorem's instance; each label's delta is computed once
    from hopfcheck import cli, reduced

    computed = []
    compute = reduced._delta_facts

    def counted(H, label):
        computed.append(label)
        return compute(H, label)

    monkeypatch.setattr(reduced, "_delta_facts", counted)
    code = cli.main(["verify", "--algebra", "tensor", "--rank", "2",
                     "--ring", ring, "--maxdeg", "4", "--suite", "reduced",
                     "--suite", "theorem1", "--out", str(tmp_path / "r")])
    assert code == 0
    labels = tensor_algebra(2, QQ, 4).basis.labels
    assert sorted(computed) == sorted(labels)


def test_reduced_and_theorem1_eliminate_ker_delta_once(monkeypatch, tmp_path):
    """Both suites read the one Ker delta that H keeps: a spy on
    ``kernel_vectors``, wherever it is bound, sees one call.  ``verify``
    reaches it only through ``reduced.delta_kernel``, and binds no copy."""
    from hopfcheck import cli, gmod, reduced, verify

    calls = []
    eliminate = gmod.kernel_vectors

    def spy(columns, keys, ring):
        calls.append(list(keys))
        return eliminate(columns, keys, ring)

    assert not hasattr(verify, "kernel_vectors")
    for module in (gmod, reduced):
        monkeypatch.setattr(module, "kernel_vectors", spy)
    code = cli.main(["verify", "--algebra", "tensor", "--rank", "2",
                     "--ring", "Q", "--maxdeg", "6", "--suite", "reduced",
                     "--suite", "theorem1", "--out", str(tmp_path / "r")])
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("unit_coproduct", ["1 1 1", "2 1 1"])
def test_theorem1_kernel_is_the_elimination_of_every_label(unit_coproduct):
    """theorem1's Ker delta, built from the positive degrees that H keeps,
    is what eliminating every label's delta gives: the unit vector first
    as exported, and no unit vector when coproduct(1) = 2 1(x)1 makes
    delta(1) = 1(x)1 nonzero.  As g(1) = 0, the report alone would not
    show a unit vector added wrongly."""
    text = export_presentation(tensor_algebra(2, QQ, 3))
    assert text.count("\ncoproduct 1 = 1 1 1\n") == 1
    H = parse_presentation(text.replace("\ncoproduct 1 = 1 1 1\n",
                                        f"\ncoproduct 1 = {unit_coproduct}\n"))
    inst = instance_from_hopf(H, "id", "S2", 1)
    labels = H.basis.labels
    expected = kernel_vectors({l: inst.delta[l].coeffs for l in labels},
                              labels, QQ)
    assert [x.coeffs for x in inst.kernel()] == expected
    assert (expected[0] == {H.unit_label: 1}) == (unit_coproduct == "1 1 1")
    statuses = {c.claim: c.status for c in check_hypotheses(inst).checks}
    assert statuses["kernel"] == "pass"


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=repr)
def test_prim_characterization_tests_each_vector_once(monkeypatch, ring):
    """The membership and primitive-counit checks share one primitivity
    test per vector; over a field the kernel check tests its own."""
    from hopfcheck import reduced

    H = tensor_algebra(2, ring, 4)
    tested = []
    is_primitive = reduced.is_primitive
    monkeypatch.setattr(reduced, "is_primitive",
                        lambda H, x: tested.append(x) or is_primitive(H, x))
    assert verify_prim_characterization(H).ok()
    kernel = delta_kernel_vectors(H)[1:] if ring.is_field else []
    assert len(tested) == len(H.basis.labels) + 8 + len(kernel)
    assert len({id(x) for x in tested}) == len(tested)


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


def test_delta_bidegrees_are_decided_once_beside_delta(monkeypatch, tmp_path):
    """``degree-bound`` and ``theorem1``'s ``grading`` read the bidegree
    fact kept beside each label's delta: neither runs
    ``middle_bidegree_failure``, and the witness is the one it gives.  With
    coproduct(c) = 1(x)c + a(x)b + 2 c(x)1, delta(c) keeps c(x)1."""
    from hopfcheck import cli, reduced, verify

    text = export_presentation(free_example_abc(ZZ, 4))
    line = "\ncoproduct c = 1 1 c + 1 a b + 1 c 1\n"
    assert text.count(line) == 1
    spec = tmp_path / "c.hspec"
    spec.write_text(text.replace(line, line.replace("1 c 1", "2 c 1")))
    H = parse_presentation(spec.read_text())
    expected = {l: reduced.middle_bidegree_failure(
        l, reduced_coproduct_label(H, l)) for l in H.basis.labels}
    assert expected["c"] == "'c' -> [(2, 0)]"
    assert {l: reduced.delta_grading_failure(H, l) for l in H.basis.labels} == expected

    def not_here(label, t):
        raise AssertionError(f"bidegrees of {label!r} decided again")

    for module in (reduced, verify):
        monkeypatch.setattr(module, "middle_bidegree_failure", not_here)
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--spec", str(spec), "--suite", "reduced",
                     "--suite", "theorem1", "--format", "structured",
                     "--out", str(out)]) == 2
    witnesses = {c["claim"]: c.get("witness")
                 for s in json.loads(out.read_text())["suites"] for c in s["checks"]}
    assert witnesses["degree-bound"] == witnesses["grading"] == expected["c"]
