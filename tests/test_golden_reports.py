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
perturbed specs run every suite but ``taft-remark`` (Taft only).  With
e = id every check of ``binomial-identity`` holds for any f, so its five
reports pass; they pin the operator-level check on spec input, and were
recorded while it still walked every basis pair.  The other digests were
recorded before the nilpotency chains were folded into one engine.  The
same test also requires, as a mutation check, that the first failing
witness of the default suites on each perturbed spec names the perturbed
label or one of its products; a perturbed ``fqsym`` spec at maxdeg 4
gets the same check.

``golden_reports_dense.json`` pins the chains on dense degree blocks:
``fqsym`` at maxdeg 5 (a 120 x 120 block in degree 5, 81% of it nonzero
in id - S^2) over Z, Q and Z/5, for ``graded-hopf``, ``lowered-exponent
--p 2`` and ``filtered --p 2``.  At maxdeg 3 the largest ``fqsym`` block
is 6 x 6.  These digests were recorded before the chains were walked on
raw degree blocks.

``golden_reports_fields.json`` pins the ``reduced`` and ``theorem1``
reports over the fields Q and Z/5, where their Ker delta checks
(``kernel``, ``kernel-primitive``) and the factorization of delta run: the
specs of ``PERTURBATIONS`` and of ``COUNIT_PERTURBATION`` exported over
each field (p = 1..3 for ``theorem1``).  These digests were recorded
before the kernels were eliminated on integer rows and the factorization
compared on raw values.  It also pins the chains over the declared field
Q[q]/(1,0,1): ``graded-hopf``, ``lowered-exponent --p 2`` and ``filtered
--p 2`` on ``fqsym`` at maxdeg 4, built in and as a spec perturbed by
``FQSYM_FIELD_PERTURBATION``, recorded while those chains were still
walked label by label, before they were decided on spans.

``golden_reports_qring.json`` pins the quotient rings: ``abc`` over
Z[q]/(1,1,1) at maxdeg 4 for every suite but ``taft-remark`` (p = 1 and
2 for the p suites), ``fqsym`` over Z[q]/(1,1,1) at maxdeg 4 for
``graded-hopf``, ``lowered-exponent --p 2``, ``filtered --p 2`` and
``binomial-identity``, and ``tensor`` of rank 3 at maxdeg 3 over
Q[q]/(1,0,1) for ``reduced`` and ``theorem1``, whose reports carry
``Fraction`` entries.  These digests were recorded while every
quotient-ring product still made one base-ring call per coefficient
product and reduced mod f term by term, before the quotient rings ran
on native polynomial kernels and the Kronecker codec.

In ``golden_reports.json`` the ``taft-remark`` reports on the connected
zoo algebras are exit 1 with no report: the suite reads its input, and
none of them presents a Taft algebra.

The ``lowered-exponent`` digests at p = 1, in ``golden_reports.json``,
``golden_reports_wide.json`` and ``golden_reports_qring.json``, were
re-recorded when a premise over an empty scope (there the degrees 2 to
1) began to pass with the reason ``vacuous: no item in scope``; no other
byte of those reports changed.

The ``reduced`` digests over rings that are not fields (``Z`` in
``golden_reports.json`` and ``golden_reports_wide.json``, ``Z[q]/(1,1,1)``
in ``golden_reports_qring.json``) were re-recorded when the not-checked
``kernel-primitive`` check began to give the reason ``ring R is not a
field``, as ``theorem1``'s ``kernel`` check does; no other byte of those
reports changed.

The ``theorem1`` digests of every input that fails a hypothesis (3 in
``golden_reports.json``, 17 in ``golden_reports_wide.json``, 34 in
``golden_reports_fields.json`` and 1 in ``golden_reports_qring.json``)
were re-recorded when a failed hypothesis began to leave the conclusions
one not-checked ``conclusions`` check that names it, in place of
``into-kernel`` and ``nilpotency``; the hypotheses report, the exit code
and every other byte of those reports are unchanged.
"""

import ast
import contextlib
import hashlib
import io
import json
from pathlib import Path

from hopfcheck.cli import DEFAULT_SUITES_CONNECTED, SUITES, main
from hopfcheck.rings import ZZ
from hopfcheck.zoo import CONNECTED_ZOO, build_algebra

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "golden_reports.json").read_text())
GOLDEN_WIDE = json.loads((HERE / "golden_reports_wide.json").read_text())
GOLDEN_DENSE = json.loads((HERE / "golden_reports_dense.json").read_text())
GOLDEN_FIELDS = json.loads((HERE / "golden_reports_fields.json").read_text())
GOLDEN_QRING = json.loads((HERE / "golden_reports_qring.json").read_text())
P_SUITES = ("filtered", "lowered-exponent", "theorem1")
PERTURBED_SUITES = sorted(set(SUITES) - {"taft-remark"})

# spec line prefix, old text, new text, and the label whose table entry
# changed: one structure constant of abc at maxdeg 4 changed each
PERTURBATIONS = {
    "coproduct-c": ("coproduct c =", "+ 1 a b", "+ 2 a b", "c"),
    "coproduct-ab": ("coproduct ab =", "+ 1 a b", "+ 2 a b", "ab"),
    "coproduct-ac": ("coproduct ac =", "+ 1 a ab", "+ 2 a ab", "ac"),
    "coproduct-bc": ("coproduct bc =", "+ 1 a bb", "+ 2 a bb", "bc"),
    "product-a-b": ("product a b =", "= 1 ab", "= 1 ab + 1 ba", "ab"),
}
# the counit side: delta(a) = 2 a(x)1 is nonzero and lies outside the
# middle bidegrees
COUNIT_PERTURBATION = ("coproduct a =", "+ 1 a 1", "+ 2 a 1 + 1 a 1", "a")
FQSYM_PERTURBATION = ("coproduct 132 =", "+ 1 12 1", "+ 2 12 1", "132")
QFIELD = "Q[q]/(1,0,1)"
FQSYM_FIELD_PERTURBATION = ("coproduct 132 =", "+ (1,0) 12 1",
                            "+ (2,0) 12 1", "132")
DENSE_SUITES = (("graded-hopf", "1"), ("lowered-exponent", "2"),
                ("filtered", "2"))
QRING = "Z[q]/(1,1,1)"


def verify_structured(*argv):
    """Exit code and structured report text of one verify run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", *argv, "--format", "structured"])
    return code, out.getvalue()


def structured(*argv):
    """Exit code and sha256 of the structured report of one verify run."""
    code, text = verify_structured(*argv)
    return [code, hashlib.sha256(text.encode()).hexdigest()]


def perturbed_spec(path: Path, algebra: str, perturbation,
                   ring: str = "Z") -> Path:
    prefix, old, new, _ = perturbation
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["export", "--algebra", algebra, "--ring", ring, "--maxdeg", "4"])
    lines = out.getvalue().splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines)
            if line.startswith(prefix + " ") and old in line]
    assert len(hits) == 1, perturbation
    lines[hits[0]] = lines[hits[0]].replace(old, new, 1)
    path.write_text("".join(lines))
    return path


def first_failing_witness(texts):
    """The first failing witness in a sequence of structured reports."""
    for text in texts:
        for suite in json.loads(text)["suites"]:
            for check in suite["checks"]:
                if check["status"] == "fail":
                    return check["witness"]
    raise AssertionError("no check fails")


def names_perturbed_label(H, witness: str, label: str) -> bool:
    """Whether ``witness`` names ``label`` or a label in the product of
    ``label`` with a basis label, on either side.  A witness names the
    labels of its input (the part before ' -> '), and a pair (x, y) of
    labels also names the labels of x*y."""
    near = {label}
    for y in H.basis.labels_up_to(H.max_degree - H.degree_of(label)):
        near.update(H.product_of_labels(label, y).coeffs)
        near.update(H.product_of_labels(y, label).coeffs)
    head = ast.literal_eval(witness.split(" -> ")[0])
    if isinstance(head, str):
        return head in near
    named = {x for x in head if isinstance(x, str)}
    if len(head) == 2 and all(isinstance(x, str) for x in head):
        named.update(H.product_of_labels(*head).coeffs)
    return bool(named & near)


def wide_reports(directory: Path):
    """The wide golden digests, and the report texts they digest."""
    seen, texts = {}, {}
    for name, perturbation in PERTURBATIONS.items():
        spec = str(perturbed_spec(directory / f"{name}.hspec", "abc",
                                  perturbation))
        for suite in PERTURBED_SUITES:
            for p in ("1", "2", "3") if suite in P_SUITES else ("1",):
                key = f"{name}|{suite}|{p}"
                code, texts[key] = verify_structured(
                    "--spec", spec, "--suite", suite, "--p", p)
                seen[key] = [code,
                             hashlib.sha256(texts[key].encode()).hexdigest()]
    for suite in P_SUITES:
        for p in ("2", "3"):
            seen[f"abc5|{suite}|{p}"] = structured(
                "--algebra", "abc", "--ring", "Z", "--maxdeg", "5",
                "--suite", suite, "--p", p)
    return seen, texts


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
    seen, texts = wide_reports(tmp_path)
    assert seen == GOLDEN_WIDE
    # each perturbed constant is caught by some default suite, and the
    # first witness names the perturbed label or one of its products
    H = build_algebra("abc", ZZ, 4)
    for name, (*_, label) in PERTURBATIONS.items():
        first = first_failing_witness(texts[f"{name}|{suite}|1"]
                                      for suite in DEFAULT_SUITES_CONNECTED)
        assert names_perturbed_label(H, first, label), (name, first)


def test_perturbed_fqsym_witness_names_its_label(tmp_path):
    spec = str(perturbed_spec(tmp_path / "fqsym4.hspec", "fqsym",
                              FQSYM_PERTURBATION))
    first = first_failing_witness(
        verify_structured("--spec", spec, "--suite", suite)[1]
        for suite in DEFAULT_SUITES_CONNECTED)
    H = build_algebra("fqsym", ZZ, 4)
    assert names_perturbed_label(H, first, FQSYM_PERTURBATION[-1]), first


def test_dense_block_reports_match_golden_digests():
    seen = {}
    for ring in ("Z", "Q", "Z/5"):
        for suite, p in DENSE_SUITES:
            seen[f"fqsym5|{ring}|{suite}|{p}"] = structured(
                "--algebra", "fqsym", "--ring", ring, "--maxdeg", "5",
                "--suite", suite, "--p", p)
    assert seen == GOLDEN_DENSE


def test_field_kernel_reports_match_golden_digests(tmp_path):
    seen, texts = {}, {}
    cases = dict(PERTURBATIONS, **{"counit-a": COUNIT_PERTURBATION})
    for name, perturbation in cases.items():
        for ring in ("Q", "Z/5"):
            spec = str(perturbed_spec(
                tmp_path / f"{name}-{ring.replace('/', '')}.hspec", "abc",
                perturbation, ring))
            for suite in ("reduced", "theorem1"):
                for p in ("1", "2", "3") if suite in P_SUITES else ("1",):
                    key = f"{name}|{ring}|{suite}|{p}"
                    code, texts[key] = verify_structured(
                        "--spec", spec, "--suite", suite, "--p", p)
                    seen[key] = [code, hashlib.sha256(
                        texts[key].encode()).hexdigest()]
    spec = str(perturbed_spec(tmp_path / "fqsym4-qfield.hspec", "fqsym",
                              FQSYM_FIELD_PERTURBATION, QFIELD))
    for suite, p in DENSE_SUITES:
        seen[f"fqsym4|{QFIELD}|{suite}|{p}"] = structured(
            "--algebra", "fqsym", "--ring", QFIELD, "--maxdeg", "4",
            "--suite", suite, "--p", p)
        seen[f"fqsym4-coproduct-132|{QFIELD}|{suite}|{p}"] = structured(
            "--spec", spec, "--suite", suite, "--p", p)
    assert seen == GOLDEN_FIELDS
    # the counit perturbation fails the factorization and the degree bound
    status = {check["claim"]: check["status"]
              for suite in json.loads(texts["counit-a|Q|reduced|1"])["suites"]
              for check in suite["checks"]}
    assert status["factorization"] == status["degree-bound"] == "fail"


def qring_reports():
    """The quotient-ring golden digests, keyed as in their file."""
    seen = {}
    for suite in PERTURBED_SUITES:
        for p in ("1", "2") if suite in P_SUITES else ("1",):
            seen[f"abc4|{QRING}|{suite}|{p}"] = structured(
                "--algebra", "abc", "--ring", QRING, "--maxdeg", "4",
                "--suite", suite, "--p", p)
    for suite, p in DENSE_SUITES + (("binomial-identity", "1"),):
        seen[f"fqsym4|{QRING}|{suite}|{p}"] = structured(
            "--algebra", "fqsym", "--ring", QRING, "--maxdeg", "4",
            "--suite", suite, "--p", p)
    for suite in ("reduced", "theorem1"):
        seen[f"tensor3|{QFIELD}|{suite}|1"] = structured(
            "--algebra", "tensor", "--rank", "3", "--ring", QFIELD,
            "--maxdeg", "3", "--suite", suite)
    return seen


def test_quotient_ring_reports_match_golden_digests():
    assert qring_reports() == GOLDEN_QRING
