"""Acceptance criteria, one test each, printing a single pass/fail line.

Every comparison is exact equality; there are no tolerances anywhere.
"""

import time

import pytest

from hopfcheck.cli import main as cli_main
from hopfcheck.gmod import GradedMap
from hopfcheck.reduced import (verify_delta_degree_bound,
                               verify_delta_factorization,
                               verify_prim_characterization)
from hopfcheck.rings import QQ, ZZ, ModRing
from hopfcheck.specfile import export_presentation, parse_presentation
from hopfcheck.verify import (binomial_identity_check, check_hypotheses,
                              instance_from_hopf, suite_graded_hopf,
                              suite_lowered_exponent, suite_taft_remark,
                              verify_conclusions)
from hopfcheck.zoo import (ZOO, build_algebra, free_example_abc, fqsym,
                           shuffle_algebra, taft, tensor_algebra)

RINGS = {"Z": ZZ, "Q": QQ, "Z/5": ModRing(5)}
SWEEP_DEGREES = {"abc": 4, "tensor": 4, "shuffle": 4, "fqsym": 4}


class timed:
    def __init__(self, limit_s):
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        return False


def report(number, label, ok, elapsed):
    line = f"ACCEPTANCE {number:2d} [{'PASS' if ok else 'FAIL'}] {label} ({elapsed:.2f}s)"
    print(line)
    assert ok, line


def test_acceptance_01_golden_counterexample():
    with timed(1) as t:
        H = free_example_abc(ZZ, 4)
        S = H.antipode()
        ok = S(H.element("c")) == H.element("ab") - H.element("c")
        S2 = S.compose(S)
        ok &= S2(H.element("c")) == (H.element("ba") - H.element("ab")
                                     + H.element("c"))
        g = GradedMap.identity(H.basis, H.ring) - S2
        witnesses = [l for l in H.basis.labels_of_degree(2)
                     if not g(H.element(l)).is_zero()]
        ok &= witnesses == ["c"]
    ok &= t.elapsed < 1
    report(1, "golden counterexample on the a,b,c example", ok, t.elapsed)


def test_acceptance_02_graded_nilpotency_suite():
    with timed(120) as t:
        ok = suite_graded_hopf(free_example_abc(ZZ, 6)).ok()
        ok &= suite_graded_hopf(fqsym(ZZ, 5)).ok()
    ok &= t.elapsed < 120
    report(2, "per-degree nilpotency on abc (N=6) and fqsym (N=5)", ok,
           t.elapsed)


def test_acceptance_03_exponent_lowering():
    with timed(120) as t:
        ok = suite_lowered_exponent(fqsym(ZZ, 5), 2).ok()
        rep = suite_lowered_exponent(free_example_abc(ZZ, 4), 2)
        premise = next(c for c in rep.checks if c.claim == "premise")
        ok &= premise.status == "fail"
        ok &= "1*ab + -1*ba" in premise.witness
    ok &= t.elapsed < 120
    report(3, "exponent lowering: fqsym passes at p=2, abc fails with ab - ba",
           ok, t.elapsed)


def test_acceptance_04_involutive_antipodes():
    with timed(10) as t:
        ok = True
        for H in (tensor_algebra(2, ZZ, 5), shuffle_algebra(2, ZZ, 5)):
            S = H.antipode()
            S2 = S.compose(S)
            ok &= all(S2.images[l] == H.element(l) for l in H.basis.labels)
    ok &= t.elapsed < 10
    report(4, "S^2 = id on tensor and shuffle algebras (N=5)", ok, t.elapsed)


def test_acceptance_05_taft_remark():
    with timed(1) as t:
        H = taft(3)
        ok = len(H.basis.labels) == 9
        ok &= H.verify_antipode_axioms().ok()
        rep = suite_taft_remark(H, K=10)
        ok &= rep.ok()
        st = {c.claim: c for c in rep.checks}
        ok &= st["squared-action"].status == "pass"
        ok &= "realized" in (st["squared-action"].witness or "")
        ok &= st["never-nilpotent"].status == "expected-nonidentity"
    ok &= t.elapsed < 1
    report(5, "Taft n=3: axioms, realized S^2(x) eigenvalue, never nilpotent",
           ok, t.elapsed)


def test_acceptance_06_harness_soundness_sweep():
    with timed(300) as t:
        ok = True
        for name, N in SWEEP_DEGREES.items():
            for ring_name, ring in RINGS.items():
                H = build_algebra(name, ring, N)
                for e_spec, f_spec in (("id", "S2"), ("S2", "S4"),
                                       ("id", "S4")):
                    inst = instance_from_hopf(H, e_spec, f_spec, 1)
                    hyp = check_hypotheses(inst)
                    ok &= hyp.ok()
                    kernel = next(c for c in hyp.checks
                                  if c.claim == "kernel")
                    expected = "pass" if ring.is_field else "not-checked"
                    ok &= kernel.status == expected
                    ok &= verify_conclusions(inst).ok()
    ok &= t.elapsed < 300
    report(6, "hypotheses+conclusions sweep: 4 algebras x 3 rings x 3 pairs",
           ok, t.elapsed)


def test_acceptance_07_binomial_identity():
    with timed(30) as t:
        H = free_example_abc(ModRing(5), 4)
        inst = instance_from_hopf(H, "id", "S2", 1)
        rep = binomial_identity_check(inst, K=4)
        ok = rep.ok()
        st = {c.claim: c.status for c in rep.checks}
        ok &= st["binomial-expansion"] == "pass"
        ok &= st["power-commutation"] == "pass"
    ok &= t.elapsed < 30
    report(7, "operator binomial identity on abc over Z/5, k <= 4", ok,
           t.elapsed)


def test_acceptance_08_reduced_layer():
    with timed(60) as t:
        ok = True
        for name in ("abc", "tensor", "shuffle", "fqsym"):
            for ring in (ZZ, QQ, ModRing(5)):
                H = build_algebra(name, ring, 4)
                ok &= verify_delta_factorization(H).ok()
                ok &= verify_delta_degree_bound(H).ok()
                rep = verify_prim_characterization(H)
                ok &= rep.ok()
                st = {c.claim: c.status for c in rep.checks}
                ok &= st["unit-in-kernel"] == "pass"
                ok &= st["membership"] == "pass"
                expected = "pass" if ring.is_field else "not-checked"
                ok &= st["kernel-primitive"] == expected
    ok &= t.elapsed < 60
    report(8, "reduced coproduct layer on every connected algebra", ok,
           t.elapsed)


def test_acceptance_09_oracle_agreement():
    with timed(60) as t:
        ok = True
        for H in (free_example_abc(ZZ, 6), tensor_algebra(2, ZZ, 5),
                  shuffle_algebra(2, ZZ, 5), fqsym(ZZ, 5)):
            S, T = H.antipode(), H.antipode_oracle()
            ok &= all(S.images[l] == T.images[l] for l in H.basis.labels)
    ok &= t.elapsed < 60
    report(9, "left- and right-recursion antipodes agree on the whole zoo",
           ok, t.elapsed)


def test_acceptance_10_round_trip_and_determinism(tmp_path, capsys):
    with timed(60) as t:
        ok = True
        for name in ZOO:
            H = build_algebra(name, ZZ, 3)
            H2 = parse_presentation(export_presentation(H))
            ok &= (H2.verify_bialgebra().to_dict()
                   == H.verify_bialgebra().to_dict())
            ok &= (H2.verify_antipode_axioms().to_dict()
                   == H.verify_antipode_axioms().to_dict())
            ok &= all(H2.antipode().images[l] == H.antipode().images[l]
                      for l in H.basis.labels)
        blobs = []
        for i in range(2):
            path = tmp_path / f"det{i}.json"
            code = cli_main(["verify", "--algebra", "abc", "--maxdeg", "4",
                             "--suite", "reduced", "--suite", "graded-hopf",
                             "--seed", "11", "--format", "structured",
                             "--out", str(path)])
            ok &= code == 0
            blobs.append(path.read_bytes())
        ok &= blobs[0] == blobs[1]
    capsys.readouterr()
    ok &= t.elapsed < 60
    report(10, "spec-file round trip and byte-identical structured reports",
           ok, t.elapsed)
