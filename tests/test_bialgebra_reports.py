"""The bialgebra suite's reports on specs that fail each of its checks.

The golden digests reach only the ``coassociativity`` and
``coproduct-multiplicative`` failures.  Each case here changes one
structure constant of the exported ``abc`` spec so that ``unit``,
``counit-left``, ``counit-right`` or ``counit-multiplicative`` fails too,
and two cases run over ``Z[q]/(1,1,1)``, whose raw values are tuples.
The expected reports were recorded before the checks compared raw ring
values; the witnesses are the boxed elements they print.
"""

import contextlib
import io

import pytest

from hopfcheck.cli import main
from hopfcheck.errors import StructuralError
from hopfcheck.gmod import Element
from hopfcheck.hopf import HopfPresentation
from hopfcheck.rings import QQ, ZZ
from hopfcheck.specfile import parse_presentation
from hopfcheck.zoo import UNIT, free_example_abc

STATEMENTS = {
    "unit": "coproduct(1) = 1(x)1 and counit(1) = 1",
    "coassociativity":
        "(coproduct(x)id) o coproduct = (id(x)coproduct) o coproduct",
    "counit-left": "(id(x)counit) o coproduct = id",
    "counit-right": "(counit(x)id) o coproduct = id",
    "coproduct-multiplicative": "coproduct(x*y) = coproduct(x)*coproduct(y)",
    "counit-multiplicative": "counit(x*y) = counit(x)*counit(y)",
}

# name: (ring, maxdeg, spec line prefix, old text, new text, witnesses by
# claim, with None for a passing check)
CASES = {
    "unit": ("Z", 4, "coproduct 1 =", "= 1 1 1", "= 2 1 1", {
        "unit": "'1' -> 2*('1', '1')",
        "coassociativity": "'a'",
        "counit-left": "'1'",
        "counit-right": "'1'",
        "coproduct-multiplicative": "('1', '1') -> -2*('1', '1')"}),
    "counit-left": ("Z", 4, "coproduct a =", "+ 1 a 1", "+ 2 a 1", {
        "coassociativity": "'a'",
        "counit-left": "'a'",
        "coproduct-multiplicative":
            "('a', 'a') -> -2*('a', 'a') + -3*('aa', '1')"}),
    "counit-right": ("Z", 4, "coproduct a =", "= 1 1 a", "= 2 1 a", {
        "coassociativity": "'a'",
        "counit-right": "'a'",
        "coproduct-multiplicative":
            "('a', 'a') -> -3*('1', 'aa') + -2*('a', 'a')"}),
    "counit-multiplicative": ("Z", 4, "product 1 1 =", "= 1 1", "= 2 1", {
        "coproduct-multiplicative": "('1', '1') -> -2*('1', '1')",
        "counit-multiplicative": "('1', '1') -> <2 in Z>"}),
    "zq-unperturbed": ("Z[q]/(1,1,1)", 3, None, None, None, {}),
    "zq-coproduct-c": ("Z[q]/(1,1,1)", 3, "coproduct c =", "+ (1,0) a b",
                       "+ (0,1) a b", {
        "coassociativity": "'ac'",
        "coproduct-multiplicative":
            "('a', 'c') -> (1,-1)*('a', 'ab') + (1,-1)*('aa', 'b')"}),
}


def spec_text(ring, maxdeg, prefix, old, new):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["export", "--algebra", "abc", "--ring", ring,
              "--maxdeg", str(maxdeg)])
    lines = out.getvalue().splitlines(keepends=True)
    if prefix is not None:
        hits = [i for i, line in enumerate(lines)
                if line.startswith(prefix + " ") and old in line]
        assert len(hits) == 1
        lines[hits[0]] = lines[hits[0]].replace(old, new, 1)
    return "".join(lines)


def expected_report(witnesses):
    checks = []
    for claim, statement in STATEMENTS.items():
        check = {"claim": claim, "statement": statement, "status": "pass"}
        if claim in witnesses:
            check.update(status="fail", witness=witnesses[claim])
        checks.append(check)
    return {"suite": "bialgebra(abc)", "ok": not witnesses, "checks": checks}


@pytest.mark.parametrize("name", CASES)
def test_bialgebra_report_matches_recorded(name):
    *edit, witnesses = CASES[name]
    H = parse_presentation(spec_text(*edit))
    assert H.verify_bialgebra().to_dict() == expected_report(witnesses)


def test_structure_constants_over_another_ring_are_rejected():
    abc = free_example_abc(ZZ, 3)

    def rational_product(l1, l2):
        x = abc.product_of_labels(l1, l2)
        return Element(abc.basis, QQ, {k: x.coeff(k).value for k in x.coeffs})

    broken = HopfPresentation("broken", abc.basis, ZZ, rational_product,
                              abc.coproduct_of_label, {UNIT: ZZ.one}, UNIT)
    with pytest.raises(StructuralError, match="mixed-ring operands"):
        broken.verify_bialgebra()
