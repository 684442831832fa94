"""End-to-end CLI behavior: exit codes, formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hopfcheck.cli import main
from hopfcheck.gmod import GradedMap
from hopfcheck.hopf import HopfPresentation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- exit code 0: everything passes ---------------------------------------

def test_verify_graded_hopf_passes(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "abc", "--ring", "Z",
                       "--maxdeg", "5", "--suite", "graded-hopf")
    assert code == 0
    assert "overall: PASS" in out


def test_verify_default_suites_pass(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "tensor",
                       "--maxdeg", "3")
    assert code == 0


def test_taft_remark_counts_as_pass(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "taft",
                       "--suite", "taft-remark")
    assert code == 0
    assert "expected-nonidentity" in out


# --- exit code 2: a check fails -------------------------------------------

def test_lowered_exponent_fails_on_abc(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "abc",
                       "--suite", "lowered-exponent", "--p", "2")
    assert code == 2
    assert "overall: FAIL" in out
    assert "'c'" in out  # the witness label


# --- exit code 1: configuration errors ------------------------------------

def test_bad_ring_is_config_error(capsys):
    code, _, err = run(capsys, "verify", "--algebra", "abc",
                       "--ring", "Z/oops")
    assert code == 1
    assert "error" in err


def test_missing_algebra_is_config_error(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bialgebra")
    assert code == 1


def test_resource_guard_is_config_error(capsys):
    code, _, err = run(capsys, "verify", "--algebra", "fqsym",
                       "--maxdeg", "9")
    assert code == 1


def test_unparseable_spec_file_has_location(tmp_path, capsys):
    bad = tmp_path / "bad.hspec"
    bad.write_text("hopf-spec 1\nring Z\nmaxdeg 1\ntables\nunit 1\n"
                   "basis 0 1 1\n")
    code, _, err = run(capsys, "verify", "--spec", str(bad))
    assert code == 1
    assert "line 6" in err


# --- export / round trip ---------------------------------------------------

def test_export_then_verify_spec(tmp_path, capsys):
    path = tmp_path / "abc.hspec"
    code, _, _ = run(capsys, "export", "--algebra", "abc", "--maxdeg", "3",
                     "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--spec", str(path),
                       "--suite", "graded-hopf", "--suite", "bialgebra")
    assert code == 0


@pytest.mark.parametrize("ring", ["Z", "Z[q]/(1,1,1)", "Q[q]/(1,0,1)"])
def test_binomial_identity_on_a_spec_with_empty_degrees(tmp_path, capsys, ring):
    """One generator of degree 2 leaves degrees 1 and 3 without labels."""
    path = tmp_path / "gap.hspec"
    path.write_text(f"hopf-spec 1\nname gap\nring {ring}\nmaxdeg 4\nfree\n"
                    "generator c 2 = primitive\n")
    code, out, _ = run(capsys, "verify", "--spec", str(path),
                       "--suite", "binomial-identity", "--format", "structured")
    assert code == 0
    checks = json.loads(out)["suites"][0]["checks"]
    assert checks and {c["status"] for c in checks} == {"pass"}


@pytest.mark.parametrize("command", ["verify", "export"])
@pytest.mark.parametrize("flag, value", [("--ring", "Q"), ("--maxdeg", "2"),
                                         ("--rank", "3"), ("--taft-n", "4")])
def test_algebra_flags_rejected_with_spec(tmp_path, capsys, command, flag,
                                          value):
    path = tmp_path / "abc.hspec"
    assert run(capsys, "export", "--algebra", "abc", "--maxdeg", "3",
               "--out", str(path))[0] == 0
    code, out, err = run(capsys, command, "--spec", str(path), flag, value)
    assert code == 1
    assert out == ""
    assert err == (f"hopfcheck: error: {flag} cannot be used with --spec: "
                   "the spec file fixes the algebra\n")


def test_algebra_flag_defaults_apply_to_zoo_algebras(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "abc",
                       "--suite", "bialgebra", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert (payload["ring"], payload["maxdeg"]) == ("Z", 4)
    code, out, _ = run(capsys, "verify", "--algebra", "taft",
                       "--suite", "bialgebra")
    assert code == 0
    assert "suite bialgebra(taft3): PASS" in out


# --- structured output and determinism -------------------------------------

def test_structured_report_is_json(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "abc", "--maxdeg", "3",
                       "--suite", "reduced", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["algebra"] == "abc"
    assert all("checks" in s for s in payload["suites"])


def test_structured_report_is_byte_identical(tmp_path, capsys):
    args = ("verify", "--algebra", "fqsym", "--maxdeg", "3",
            "--suite", "reduced", "--suite", "graded-hopf",
            "--seed", "7", "--format", "structured")
    outs = []
    for i in range(2):
        path = tmp_path / f"run{i}.json"
        code, _, _ = run(capsys, *args, "--out", str(path))
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_list_suites(capsys):
    code, out, _ = run(capsys, "list-suites")
    assert code == 0
    for name in ("graded-hopf", "theorem1", "binomial-identity",
                 "lowered-exponent", "taft-remark"):
        assert name in out


# --- preconditions ------------------------------------------------------------

@pytest.mark.parametrize("suite", ["lowered-exponent", "filtered", "bialgebra"])
@pytest.mark.parametrize("p", ["0", "-3"])
def test_nonpositive_p_is_config_error(capsys, suite, p):
    code, out, err = run(capsys, "verify", "--algebra", "abc", "--maxdeg", "4",
                         "--suite", suite, "--p", p)
    assert code == 1
    assert "p must be a positive integer" in err
    assert "PASS" not in out


@pytest.mark.parametrize("argv", [
    ("verify", "--algebra", "fqsym", "--maxdeg", "-1"),
    ("verify", "--algebra", "tensor", "--maxdeg", "-2"),
    ("verify", "--algebra", "shuffle", "--maxdeg", "-1"),
    ("export", "--algebra", "abc", "--maxdeg", "-1"),
])
def test_negative_maxdeg_is_config_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err == "hopfcheck: error: maxdeg must be >= 0\n"
    assert out == ""


@pytest.mark.parametrize("suite", ["graded-hopf", "lowered-exponent",
                                   "filtered", "reduced", "theorem1"])
def test_connected_only_suites_reject_taft(capsys, suite):
    code, out, err = run(capsys, "verify", "--algebra", "taft",
                         "--suite", suite)
    assert code == 1
    assert "taft3 is not connected" in err
    assert out == ""


def test_taft_remark_rejects_a_spec_that_is_not_taft(tmp_path, capsys):
    path = tmp_path / "abc3.hspec"
    assert run(capsys, "export", "--algebra", "abc", "--maxdeg", "3",
               "--out", str(path))[0] == 0
    code, out, err = run(capsys, "verify", "--spec", str(path),
                         "--suite", "taft-remark")
    assert code == 1
    assert out == ""
    assert "abc is not a Taft presentation" in err


def test_taft_remark_names_the_table_line_that_differs(tmp_path, capsys):
    path = tmp_path / "taft3.hspec"
    assert run(capsys, "export", "--algebra", "taft", "--out", str(path))[0] == 0
    text = path.read_text()
    line = "product a1x0 a0x1 = (1,0) a1x1"
    assert text.count(line + "\n") == 1
    path.write_text(text.replace(line, "product a1x0 a0x1 = (0,1) a1x1"))
    code, out, err = run(capsys, "verify", "--spec", str(path),
                         "--suite", "taft-remark")
    assert code == 1
    assert out == ""
    assert "taft3 is not the Taft algebra taft3" in err
    assert repr(line) in err


def test_taft_remark_on_an_exported_spec_matches_the_built_in(tmp_path,
                                                             capsys):
    path = tmp_path / "taft3.hspec"
    assert run(capsys, "export", "--algebra", "taft", "--out", str(path))[0] == 0
    reports = []
    for source in (("--algebra", "taft"), ("--spec", str(path))):
        code, out, _ = run(capsys, "verify", *source, "--suite", "taft-remark",
                           "--format", "structured")
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]


def test_default_suites_compose_the_squared_antipode_once(monkeypatch, capsys):
    antipodes, squares = [], []
    antipode, compose = HopfPresentation.antipode, GradedMap.compose

    def recorded_antipode(self):
        S = antipode(self)
        antipodes.append(S)
        return S

    def recorded_compose(self, other):
        if any(self is S and other is S for S in antipodes):
            squares.append(self)
        return compose(self, other)

    monkeypatch.setattr(HopfPresentation, "antipode", recorded_antipode)
    monkeypatch.setattr(GradedMap, "compose", recorded_compose)
    code, _, _ = run(capsys, "verify", "--algebra", "abc", "--maxdeg", "4")
    assert code == 0
    assert len(squares) == 1


def test_oracle_agreement_not_checked_on_taft(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "taft",
                       "--suite", "oracle-agreement")
    assert code == 0
    assert "not-checked" in out and "not connected" in out


# --- no vacuous pass from the chain engine -------------------------------------

@pytest.mark.parametrize("argv, first_u", [
    (("--algebra", "tensor", "--maxdeg", "3", "--suite", "theorem1", "--p", "3"),
     {"into-kernel": 4, "nilpotency": 4}),
    (("--algebra", "tensor", "--maxdeg", "3", "--suite", "filtered", "--p", "4"),
     {"into-primitives": 5, "nilpotency": 4}),
    (("--algebra", "fqsym", "--maxdeg", "0", "--suite", "graded-hopf"),
     {"into-primitives": 1, "killed-by-id-plus-S": 1, "nilpotency": 1}),
])
def test_empty_chain_scope_is_not_checked(capsys, argv, first_u):
    code, out, _ = run(capsys, "verify", *argv, "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    chain = {c["claim"]: c for c in payload["suites"][-1]["checks"]
             if c["claim"] in first_u}
    assert set(chain) == set(first_u)
    top = payload["maxdeg"]
    for claim, check in chain.items():
        assert check["status"] == "not-checked"
        assert check["witness"].startswith("empty scope: ")
        assert check["witness"].endswith(f"{first_u[claim]} <= u <= {top}")


FREE_WITHOUT_DEGREE_ONE = """hopf-spec 1
name free23
ring Z
maxdeg 5
free
generator x 2 = primitive
generator y 3 = primitive
"""


def structured_checks(capsys, *argv):
    """Exit code and the checks of every suite of a structured report,
    by claim."""
    code, out, _ = run(capsys, "verify", *argv, "--format", "structured")
    return code, {c["claim"]: c for suite in json.loads(out)["suites"]
                  for c in suite["checks"]}


def test_empty_premise_scope_passes_vacuously(capsys, tmp_path):
    # theorem1 at p = 3 on maxdeg 3 reads grading over degrees 4..3, and a
    # free algebra on generators of degrees 2 and 3 has no degree-1 pair
    code, checks = structured_checks(
        capsys, "--algebra", "tensor", "--maxdeg", "3", "--suite", "theorem1",
        "--p", "3")
    assert code == 0
    assert checks["grading"]["status"] == "pass"
    assert checks["grading"]["witness"] == "vacuous: no item in scope"
    # a premise over a nonempty scope passes bare
    assert checks["annihilation"]["status"] == "pass"
    assert "witness" not in checks["annihilation"]
    spec = tmp_path / "free23.hspec"
    spec.write_text(FREE_WITHOUT_DEGREE_ONE)
    code, checks = structured_checks(
        capsys, "--spec", str(spec), "--suite", "lowered-exponent", "--p", "2")
    assert code == 0
    commutativity = checks["degree-1-commutativity"]
    assert commutativity["status"] == "pass"
    assert commutativity["witness"] == "vacuous: no item in scope"
    assert "witness" not in checks["premise"]
    # the shuffle algebra is commutative: its degree-1 pairs pass bare
    code, checks = structured_checks(
        capsys, "--algebra", "shuffle", "--maxdeg", "3", "--suite",
        "lowered-exponent", "--p", "2")
    assert checks["degree-1-commutativity"]["status"] == "pass"
    assert "witness" not in checks["degree-1-commutativity"]


def test_chains_reaching_zero_early_still_pass(capsys):
    # every chain of degree u reaches zero by (id-S^2)^(u-1): nilpotency at
    # exponent u compares nothing nonzero, yet its scope is not empty
    code, out, _ = run(capsys, "verify", "--algebra", "fqsym", "--maxdeg", "3",
                       "--suite", "graded-hopf", "--format", "structured")
    assert code == 0
    checks = json.loads(out)["suites"][0]["checks"]
    assert [c["status"] for c in checks] == ["pass"] * 3


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "hopfcheck", "verify",
                           "--algebra", "abc", "--maxdeg", "2",
                           "--suite", "graded-hopf"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("overall: PASS\n")


# --- structure-table reads ---------------------------------------------------

# the benchmark's four invocations, with the distinct product and coproduct
# entries each reads through product_of_labels / coproduct_of_label
TABLE_READS = {
    "fqsym-chains": (("--algebra", "fqsym", "--ring", "Z", "--maxdeg", "5",
                      "--suite", "graded-hopf"), 0, 246, 153),
    "abc-spec": (("--suite", "bialgebra", "--suite", "oracle-agreement",
                  "--suite", "lowered-exponent", "--p", "2"), 2, 1622, 288),
    "tensor-kernels": (("--algebra", "tensor", "--rank", "2", "--ring", "Q",
                        "--maxdeg", "6", "--suite", "reduced", "--suite",
                        "theorem1", "--seed", "1"), 0, 705, 127),
    "binomial-qring": (("--algebra", "abc", "--ring", "Z[q]/(1,1,1)",
                        "--maxdeg", "4", "--suite", "binomial-identity"),
                       0, 165, 49),
}


@pytest.mark.parametrize("workload", TABLE_READS)
def test_structure_table_reads_are_pinned(workload, tmp_path, monkeypatch,
                                          capsys):
    """Table rows are filled on first read, so a run evaluates only the
    entries its checks need: filling every pair of total degree <= 5 would
    evaluate 400 fqsym shuffle products, not 246."""
    args, exit_code, products, coproducts = TABLE_READS[workload]
    if workload == "abc-spec":
        spec = tmp_path / "abc6.hspec"
        assert run(capsys, "export", "--algebra", "abc", "--ring", "Z/5",
                   "--maxdeg", "6", "--out", str(spec))[0] == 0
        args = ("--spec", str(spec)) + args
    read = {"product_of_labels": set(), "coproduct_of_label": set()}
    for name, keys in read.items():
        def probe(self, *labels, fn=getattr(HopfPresentation, name), keys=keys):
            keys.add((id(self), labels))
            return fn(self, *labels)
        monkeypatch.setattr(HopfPresentation, name, probe)
    assert run(capsys, "verify", *args)[0] == exit_code
    assert (len(read["product_of_labels"]),
            len(read["coproduct_of_label"])) == (products, coproducts)
