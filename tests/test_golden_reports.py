"""Byte identity of structured reports across engine changes.

``golden_reports.json`` holds, for every connected zoo algebra at maxdeg 3
(rank 2 where it applies) x the rings Z, Q, Z/5 x every suite, the exit
code and the sha256 of the ``--format structured`` report (seed 0), at
p = 1 and, for the suites whose checks depend on p, also at p = 2.  The
digests were recorded before the raw-value accumulation kernel replaced
boxed ``RingElement`` accumulation; a change that alters any report byte
fails here.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from hopfcheck.cli import SUITES, main
from hopfcheck.zoo import CONNECTED_ZOO

GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text())
P_SUITES = ("filtered", "lowered-exponent", "theorem1")


def test_structured_reports_match_golden_digests():
    seen = {}
    for algebra in CONNECTED_ZOO:
        for ring in ("Z", "Q", "Z/5"):
            for suite in sorted(SUITES):
                for p in ("1", "2") if suite in P_SUITES else ("1",):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = main(["verify", "--algebra", algebra,
                                     "--ring", ring, "--maxdeg", "3",
                                     "--suite", suite, "--p", p,
                                     "--format", "structured"])
                    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
                    seen[f"{algebra}|{ring}|{suite}|{p}"] = [code, digest]
    assert seen == GOLDEN
