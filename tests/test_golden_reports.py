"""Byte identity of structured reports across engine changes.

``golden_reports.json`` holds, for every connected zoo algebra at maxdeg 3
(rank 2 where it applies) x the rings Z, Q, Z/5 x every suite, the exit
code and the sha256 of the ``--format structured`` report (seed 0), at
p = 1 and, for the suites whose checks depend on p, also at p = 2.  The
digests were recorded before the raw-value accumulation kernel replaced
boxed ``RingElement`` accumulation; a change that alters any report byte
fails here.

``golden_reports_wide.json`` pins the failing paths those inputs never
reach.  It holds the same digests for ``abc`` over Z at maxdeg 4 with one
structure constant perturbed per spec (p = 1..3 for the p suites), and
for ``abc`` over Z at maxdeg 5 (the p suites at p = 2 and 3), whose
reports carry filtered-scope witnesses such as ``('ab', 2)``.  The
perturbed specs run every suite but ``taft-remark`` (Taft only) and
``binomial-identity``: with e = id every check of the latter holds for
any f, so it passes on every perturbed spec, and it would take most of
the test's time.  The digests were recorded before the nilpotency chains
were folded into one engine.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from hopfcheck.cli import DEFAULT_SUITES_CONNECTED, SUITES, main
from hopfcheck.zoo import CONNECTED_ZOO

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "golden_reports.json").read_text())
GOLDEN_WIDE = json.loads((HERE / "golden_reports_wide.json").read_text())
P_SUITES = ("filtered", "lowered-exponent", "theorem1")
PERTURBED_SUITES = sorted(set(SUITES) - {"taft-remark", "binomial-identity"})

# spec line prefix, old text, new text: one structure constant changed each
PERTURBATIONS = {
    "coproduct-c": ("coproduct c =", "+ 1 a b", "+ 2 a b"),
    "coproduct-ab": ("coproduct ab =", "+ 1 a b", "+ 2 a b"),
    "coproduct-ac": ("coproduct ac =", "+ 1 a ab", "+ 2 a ab"),
    "coproduct-bc": ("coproduct bc =", "+ 1 a bb", "+ 2 a bb"),
    "product-a-b": ("product a b =", "= 1 ab", "= 1 ab + 1 ba"),
}


def structured(*argv):
    """Exit code and sha256 of the structured report of one verify run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", *argv, "--format", "structured"])
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def perturbed_spec(directory: Path, name: str) -> Path:
    prefix, old, new = PERTURBATIONS[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["export", "--algebra", "abc", "--ring", "Z", "--maxdeg", "4"])
    lines = out.getvalue().splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines)
            if line.startswith(prefix + " ") and old in line]
    assert len(hits) == 1, name
    lines[hits[0]] = lines[hits[0]].replace(old, new, 1)
    path = directory / f"{name}.hspec"
    path.write_text("".join(lines))
    return path


def wide_reports(directory: Path) -> dict:
    seen = {}
    for name in PERTURBATIONS:
        spec = str(perturbed_spec(directory, name))
        for suite in PERTURBED_SUITES:
            for p in ("1", "2", "3") if suite in P_SUITES else ("1",):
                seen[f"{name}|{suite}|{p}"] = structured(
                    "--spec", spec, "--suite", suite, "--p", p)
    for suite in P_SUITES:
        for p in ("2", "3"):
            seen[f"abc5|{suite}|{p}"] = structured(
                "--algebra", "abc", "--ring", "Z", "--maxdeg", "5",
                "--suite", suite, "--p", p)
    return seen


def test_structured_reports_match_golden_digests():
    seen = {}
    for algebra in CONNECTED_ZOO:
        for ring in ("Z", "Q", "Z/5"):
            for suite in sorted(SUITES):
                for p in ("1", "2") if suite in P_SUITES else ("1",):
                    seen[f"{algebra}|{ring}|{suite}|{p}"] = structured(
                        "--algebra", algebra, "--ring", ring, "--maxdeg", "3",
                        "--suite", suite, "--p", p)
    assert seen == GOLDEN


def test_failing_reports_match_golden_digests(tmp_path):
    seen = wide_reports(tmp_path)
    assert seen == GOLDEN_WIDE
    # each perturbed constant is caught by some default suite
    for name in PERTURBATIONS:
        assert any(seen[f"{name}|{suite}|1"][0] == 2
                   for suite in DEFAULT_SUITES_CONNECTED), name
