"""One benchmarked ``hopfcheck`` invocation, run in a fresh interpreter.

    python3 perfbench/child.py --mode run -- verify --algebra abc ...

Modes:

* ``setup``: load the algebra (zoo build or spec parse) and exit.
* ``run``: the full ``hopfcheck`` command line, through ``cli.main``.
* ``trace``: like ``run``, with the layer probes of ``tracer.py`` installed;
  after the run the probes are removed, size sentinels are read from public
  state, and spans, counts and sentinels are written to ``--trace-out``.

``cli.load_algebra`` is wrapped to note the moment the algebra is loaded.
The last line on stdout is a JSON object with that moment and the moment
the report was written (both ``time.monotonic_ns``, the same clock the
parent reads before spawning), the exit code and the peak RSS in KiB.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _nnz(graded_map) -> int:
    return sum(len(img.coeffs) for img in graded_map.images.values())


def _sentinels(H, report_path) -> dict:
    from hopfcheck.gmod import GradedMap

    S = H.antipode()
    S2 = S.compose(S)
    g = GradedMap.identity(H.basis, H.ring) - S2
    with open(report_path, "rb") as fh:
        raw = fh.read()
    statuses = [c["status"] for suite in json.loads(raw)["suites"]
                for c in suite["checks"]]
    return {"size.labels": len(H.basis.labels),
            "size.S.nnz": _nnz(S),
            "size.S2.nnz": _nnz(S2),
            "size.g.nnz": _nnz(g),
            "size.checks.fail": statuses.count("fail"),
            "size.checks.not_checked": statuses.count("not-checked"),
            "report.bytes": len(raw)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    argv = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    from hopfcheck import cli

    loaded = {}
    load_algebra = cli.load_algebra

    def timed_load(args):
        H = load_algebra(args)
        loaded["ns"] = time.monotonic_ns()
        loaded["H"] = H
        return H

    cli.load_algebra = timed_load
    tracer = None
    if opts.mode == "setup":
        code = 0
        timed_load(cli.build_parser().parse_args(argv))
    elif opts.mode == "run":
        code = cli.main(argv)
    else:
        from tracer import Tracer, install_layer_probes

        tracer = Tracer()
        install_layer_probes(tracer)
        code = tracer.spanned("cli.main", cli.main)(argv)
    done_ns = time.monotonic_ns()

    if tracer is not None:
        tracer.uninstall()
        out = cli.build_parser().parse_args(argv).out
        tracer.dump(opts.trace_out, _sentinels(loaded["H"], out))
    print(json.dumps({"loaded_ns": loaded.get("ns"), "done_ns": done_ns,
                      "exit": code,
                      "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
