"""Benchmark of ``hopfcheck verify`` on four pinned workloads.

    python3 perfbench/run.py                       # all four workloads
    python3 perfbench/run.py --workload abc-spec --seed 3 --seconds 30
    python3 perfbench/run.py --workload tensor-kernels --trace 1

Run from any directory; the program is loaded from ``src/`` of the checkout
this file sits in.  Each ``hopfcheck`` invocation runs in a fresh child
interpreter (``child.py``), one at a time: a closed loop with one client.
The seed goes to every invocation as ``--seed``.

``--trace 0`` measures end to end with no tracing.  A run starts with
``SETUP_PROBES`` children that only load the algebra, then runs the full
invocation until ``--seconds`` would be exceeded by one more (at least
once).  It reports ``setup_s`` (process start to algebra loaded, every
child), ``verify_s`` (algebra loaded to report written) and
``peak_rss_mb`` (the child's ``ru_maxrss``), each as median, high
percentile and sample count, and the error rate.

``--trace 1`` runs the workload once untraced and twice with the layer
probes of ``tracer.py``, checks that the two traced runs give the same
counts, runs the ring microbench (``ringbench.py``) and reports the
per-layer metrics listed in ``LAYER_METRICS``.

Every invocation is checked against ``expected.json``: exit code, digest
of the structured report with ``seed`` set aside, and the digest of the
generated spec file.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every invocation matched its pin, 1 when one did not, and 2 when the
program is missing from the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

from stats import format_summary, summarize, valid_metric_name
from tracer import summarize as summarize_spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")
PINS = os.path.join(HERE, "expected.json")

SETUP_PROBES = 5
RUN_DEADLINE_S = 170

SPEC_INPUT = "abc6.hspec"
SPEC_EXPORT = ["export", "--algebra", "abc", "--ring", "Z/5", "--maxdeg", "6"]


@dataclass(frozen=True)
class Workload:
    argv: tuple
    why: str

    def cli_args(self, seed: int, report: str) -> list:
        args = [os.path.join(WORK, SPEC_INPUT) if a == "{spec}" else a
                for a in self.argv]
        return args + ["--seed", str(seed), "--format", "structured",
                       "--out", report]


WORKLOADS = {
    "fqsym-chains": Workload(
        ("verify", "--algebra", "fqsym", "--ring", "Z", "--maxdeg", "5",
         "--suite", "graded-hopf"),
        "dense id - S^2 over Z at N=5, graded-hopf suite: nilpotency chains "
        "and ring arithmetic dominate; structure tables stay tiny"),
    "abc-spec": Workload(
        ("verify", "--spec", "{spec}", "--suite", "bialgebra",
         "--suite", "oracle-agreement", "--suite", "lowered-exponent",
         "--p", "2"),
        "125 KB abc spec over Z/5 at N=6: parse, structure tables, "
        "t2_product, both antipodes, the pinned FAIL path"),
    "tensor-kernels": Workload(
        ("verify", "--algebra", "tensor", "--rank", "2", "--ring", "Q",
         "--maxdeg", "6", "--suite", "reduced", "--suite", "theorem1"),
        "tensor algebra over Q at N=6: exact Gaussian elimination over "
        "Fraction dominates"),
    "binomial-qring": Workload(
        ("verify", "--algebra", "abc", "--ring", "Z[q]/(1,1,1)",
         "--maxdeg", "4", "--suite", "binomial-identity"),
        "abc over Z[q]/(1,1,1) at N=4: all-pairs Tensor2Map compositions "
        "and tuple-valued ring arithmetic"),
}

END_TO_END = (("setup_s", "s"), ("verify_s", "s"), ("peak_rss_mb", "MB"))

# (metric, unit, better, source).  A source is ("span", name, field) with
# field calls | self_s | total_s | first_s, ("count", name), ("extra", name)
# for values the child or this script computes, or ("ratio", num, den) over
# two counts.
LAYER_METRICS = (
    ("rings.mul.calls", "count", "lower", ("count", "rings.mul.calls")),
    ("rings.add.calls", "count", "lower", ("count", "rings.add.calls")),
    *((f"rings.{r}.{op}_ns", "ns", "lower", ("extra", f"rings.{r}.{op}_ns"))
      for r in ("Z", "Q", "zmod5", "zq3") for op in ("mul", "add")),
    ("gmod.map_apply.calls", "count", "lower", ("span", "gmod.map_apply", "calls")),
    ("gmod.map_apply.self_s", "s", "lower", ("span", "gmod.map_apply", "self_s")),
    ("gmod.compose.calls", "count", "lower", ("span", "gmod.compose", "calls")),
    ("gmod.compose.self_s", "s", "lower", ("span", "gmod.compose", "self_s")),
    ("gmod.compose.total_s", "s", "lower", ("span", "gmod.compose", "total_s")),
    ("gmod.element_add.calls", "count", "lower", ("count", "gmod.element_add.calls")),
    ("gmod.kernel_vectors.calls", "count", "lower",
     ("span", "gmod.kernel_vectors", "calls")),
    ("gmod.kernel_vectors.self_s", "s", "lower",
     ("span", "gmod.kernel_vectors", "self_s")),
    ("gmod.kernel_vectors.cells", "count", "lower",
     ("count", "gmod.kernel_vectors.cells")),
    ("gmod.apply_tensor.calls", "count", "lower", ("span", "gmod.apply_tensor", "calls")),
    ("gmod.apply_tensor.self_s", "s", "lower", ("span", "gmod.apply_tensor", "self_s")),
    ("gmod.tensor_map.pairs", "count", "lower", ("count", "gmod.tensor_map.pairs")),
    ("gmod.tensor_map.nonzero_ratio", "ratio", "higher",
     ("ratio", "gmod.tensor_map.nonzero", "gmod.tensor_map.pairs")),
    ("gmod.tensor_compose.calls", "count", "lower",
     ("span", "gmod.tensor_compose", "calls")),
    ("gmod.tensor_compose.self_s", "s", "lower",
     ("span", "gmod.tensor_compose", "self_s")),
    ("hopf.product.calls", "count", "lower", ("span", "hopf.product", "calls")),
    ("hopf.product.self_s", "s", "lower", ("span", "hopf.product", "self_s")),
    ("hopf.t2_product.calls", "count", "lower", ("span", "hopf.t2_product", "calls")),
    ("hopf.t2_product.self_s", "s", "lower", ("span", "hopf.t2_product", "self_s")),
    ("hopf.verify_bialgebra.self_s", "s", "lower",
     ("span", "hopf.verify_bialgebra", "self_s")),
    ("hopf.product_table.entries", "count", "lower",
     ("count", "hopf.product_table.entries")),
    ("hopf.product_table.hit_ratio", "ratio", "higher",
     ("hits", "hopf.product_table.calls", "hopf.product_table.entries")),
    ("hopf.coproduct_table.entries", "count", "lower",
     ("count", "hopf.coproduct_table.entries")),
    ("hopf.coproduct_table.hit_ratio", "ratio", "higher",
     ("hits", "hopf.coproduct_table.calls", "hopf.coproduct_table.entries")),
    ("hopf.antipode.s", "s", "lower", ("span", "hopf.antipode", "first_s")),
    ("hopf.antipode_oracle.s", "s", "lower", ("span", "hopf.antipode_oracle", "first_s")),
    ("reduced.is_primitive.calls", "count", "lower", ("span", "reduced.is_primitive", "calls")),
    ("reduced.is_primitive.self_s", "s", "lower",
     ("span", "reduced.is_primitive", "self_s")),
    ("reduced.reduced_coproduct.calls", "count", "lower",
     ("span", "reduced.reduced_coproduct", "calls")),
    ("reduced.reduced_coproduct.self_s", "s", "lower",
     ("span", "reduced.reduced_coproduct", "self_s")),
    ("verify.suite_graded_hopf.self_s", "s", "lower",
     ("span", "verify.suite_graded_hopf", "self_s")),
    ("verify.suite_lowered_exponent.self_s", "s", "lower",
     ("span", "verify.suite_lowered_exponent", "self_s")),
    ("verify.check_hypotheses.self_s", "s", "lower",
     ("span", "verify.check_hypotheses", "self_s")),
    ("verify.verify_conclusions.self_s", "s", "lower",
     ("span", "verify.verify_conclusions", "self_s")),
    ("verify.instance_from_hopf.s", "s", "lower",
     ("span", "verify.instance_from_hopf", "total_s")),
    ("verify.binomial_identity_check.self_s", "s", "lower",
     ("span", "verify.binomial_identity_check", "self_s")),
    ("specfile.parse.s", "s", "lower", ("span", "specfile.parse", "total_s")),
    ("specfile.input_bytes", "bytes", "lower", ("extra", "specfile.input_bytes")),
    ("zoo.build_algebra.s", "s", "lower", ("span", "zoo.build_algebra", "total_s")),
    ("size.labels", "count", "lower", ("extra", "size.labels")),
    ("size.S.nnz", "count", "lower", ("extra", "size.S.nnz")),
    ("size.S2.nnz", "count", "lower", ("extra", "size.S2.nnz")),
    ("size.g.nnz", "count", "lower", ("extra", "size.g.nnz")),
    ("size.checks.fail", "count", "lower", ("extra", "size.checks.fail")),
    ("size.checks.not_checked", "count", "lower", ("extra", "size.checks.not_checked")),
    ("report.bytes", "bytes", "lower", ("extra", "report.bytes")),
    ("trace.verify_s", "s", "lower", ("extra", "trace.verify_s")),
    ("trace.base_verify_s", "s", "lower", ("extra", "trace.base_verify_s")),
    ("trace.overhead", "ratio", "lower", ("extra", "trace.overhead")),
)


# ---------------------------------------------------------------------------
# pins
# ---------------------------------------------------------------------------

def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def report_digest(path) -> str:
    """sha256 of the structured report with its ``seed`` field set aside."""
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if not isinstance(report, dict) or "seed" not in report:
        raise ValueError("not a structured report")
    del report["seed"]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def check_against_pin(pin: dict, exit_code: int, report_path) -> str | None:
    """Why an invocation does not match its pin, or None when it does."""
    if exit_code != pin["exit"]:
        return f"exit code {exit_code}, pinned {pin['exit']}"
    try:
        digest = report_digest(report_path)
        with open(report_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:
        return f"unreadable report ({exc!r})"
    if digest != pin["report_sha256"]:
        return f"report digest {digest[:12]}, pinned {pin['report_sha256'][:12]}"
    if json.dumps(pin.get("witness", ""))[1:-1] not in text:
        return f"pinned witness {pin['witness']!r} missing"
    return None


class Tally:
    """Invocations attempted and the reasons of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, reason: str | None):
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{what}: {reason}")
            print(f"FAILED {what}: {reason}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return len(self.failures)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class Runner:
    """Spawns children one at a time, all before a shared deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "PYTHONSTARTUP")}
        self.env["PYTHONHASHSEED"] = "0"

    def spawn(self, script, args):
        """Run a child; return (last stdout line as JSON, spawn ns) or raise
        ``ChildFailed``."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise ChildFailed("run deadline passed")
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen([sys.executable, script, *args], cwd=ROOT,
                                env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise ChildFailed("timed out") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or ["no stderr"]
            raise ChildFailed(f"child exited {proc.returncode}: {tail[0]}")
        try:
            return json.loads(out.strip().splitlines()[-1]), spawn_ns
        except (ValueError, IndexError):
            raise ChildFailed("no result line from child") from None

    def invoke(self, mode, cli_args, trace_out=None):
        extra = ["--trace-out", trace_out] if trace_out else []
        info, spawn_ns = self.spawn(CHILD, ["--mode", mode, *extra, "--", *cli_args])
        if info["loaded_ns"] is None:
            raise ChildFailed("algebra never loaded")
        info["setup_s"] = (info["loaded_ns"] - spawn_ns) / 1e9
        info["verify_s"] = (info["done_ns"] - info["loaded_ns"]) / 1e9
        info["peak_rss_mb"] = info["maxrss_kb"] / 1024
        return info


class ChildFailed(Exception):
    pass


def prepare_input(runner: Runner, pins: dict) -> str | None:
    """Export the abc-spec input once per checkout; check its digest."""
    path = os.path.join(WORK, SPEC_INPUT)
    pinned = pins["inputs"][SPEC_INPUT]
    if os.path.exists(path) and file_digest(path) == pinned:
        return None
    try:
        info = runner.invoke("run", SPEC_EXPORT + ["--out", path])
    except ChildFailed as exc:
        return f"export failed: {exc}"
    if info["exit"] != 0:
        return f"export exited {info['exit']}"
    digest = file_digest(path)
    if digest != pinned:
        return f"input digest {digest[:12]}, pinned {pinned[:12]}"
    return None


def checked_invocation(runner, tally, name, pin, mode, cli_args, report,
                       trace_out=None):
    """One invocation, recorded in ``tally``; its info, or None on failure."""
    try:
        info = runner.invoke(mode, cli_args, trace_out)
    except ChildFailed as exc:
        tally.record(f"{name} {mode}", str(exc))
        return None
    reason = None if mode == "setup" else check_against_pin(
        pin, info["exit"], report)
    tally.record(f"{name} {mode}", reason)
    return None if reason else info


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def measure(runner, tally, name, pin, seed, seconds, scratch) -> dict:
    """End-to-end samples of one workload over ``seconds``."""
    report = os.path.join(scratch, "report.json")
    cli_args = WORKLOADS[name].cli_args(seed, report)
    samples = {metric: [] for metric, _ in END_TO_END}
    start = time.monotonic()
    for _ in range(SETUP_PROBES):
        info = checked_invocation(runner, tally, name, pin, "setup", cli_args, report)
        if info:
            samples["setup_s"].append(info["setup_s"])
    walls = []
    while not walls or time.monotonic() - start + statistics.median(walls) <= seconds:
        t0 = time.monotonic()
        info = checked_invocation(runner, tally, name, pin, "run", cli_args, report)
        walls.append(time.monotonic() - t0)
        if info:
            for metric, _ in END_TO_END:
                samples[metric].append(info[metric])
    return samples


def layer_metrics(dump: dict, extra: dict) -> dict:
    spans = summarize_spans(dump["names"], dump["spans"])
    counts = dump["counts"]
    known = {**dump["extra"], **extra}
    out = {}
    for metric, _, _, source in LAYER_METRICS:
        kind = source[0]
        if kind == "span":
            agg = spans.get(source[1])
            field = source[2]
            if agg is None:
                value = 0
            elif field == "calls":
                value = agg["calls"]
            else:
                value = agg[field.replace("_s", "_ns")] / 1e9
        elif kind == "count":
            value = counts.get(source[1], 0)
        elif kind == "extra":
            value = known[source[1]]
        else:
            num = counts.get(source[1], 0)
            den = counts.get(source[2], 0)
            if kind == "hits":
                num, den = num - den, num
            value = num / den if den else 0.0
        out[metric] = value
    return out


def _repeatable(dump: dict) -> tuple:
    calls = {n: a["calls"] for n, a in
             summarize_spans(dump["names"], dump["spans"]).items()}
    return dump["counts"], dump["extra"], calls


def trace(runner, tally, name, pin, seed, scratch) -> dict | None:
    """Per-layer metrics of one workload, from two traced runs."""
    report = os.path.join(scratch, "report.json")
    cli_args = WORKLOADS[name].cli_args(seed, report)
    base = checked_invocation(runner, tally, name, pin, "run", cli_args, report)
    dumps, traced = [], []
    for k in range(2):
        out = os.path.join(scratch, f"trace{k}.json")
        info = checked_invocation(runner, tally, name, pin, "trace", cli_args,
                                  report, trace_out=out)
        if info:
            traced.append(info)
            with open(out, "r", encoding="utf-8") as fh:
                dumps.append(json.load(fh))
    if len(dumps) == 2:
        same = _repeatable(dumps[0]) == _repeatable(dumps[1])
        tally.record(f"{name} trace-repeat",
                     None if same else "counts differ between traced runs")
    try:
        rings, _ = runner.spawn(os.path.join(HERE, "ringbench.py"),
                                ["--seed", str(seed)])
        tally.record(f"{name} ringbench", None)
    except ChildFailed as exc:
        tally.record(f"{name} ringbench", str(exc))
        return None
    if base is None or not dumps:
        return None
    input_bytes = (os.path.getsize(cli_args[cli_args.index("--spec") + 1])
                   if "--spec" in cli_args else 0)
    extra = {**rings, "specfile.input_bytes": input_bytes,
             "trace.verify_s": traced[0]["verify_s"],
             "trace.base_verify_s": base["verify_s"],
             "trace.overhead": traced[0]["verify_s"] / base["verify_s"]}
    return layer_metrics(dumps[0], extra)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_workload(runner, tally, name, pins, seed, seconds, traced) -> dict:
    pin = pins["workloads"][name]
    print(f"workload {name}: {WORKLOADS[name].why}")
    if name == "abc-spec":
        reason = prepare_input(runner, pins)
        if reason:
            tally.record(f"{name} input", reason)
            return {}
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        if traced:
            values = trace(runner, tally, name, pin, seed, scratch) or {}
            units = {m: u for m, u, _, _ in LAYER_METRICS}
            for metric, value in values.items():
                print(f"  {metric:<40} {value:.6g} {units[metric]}")
            return {m: {"value": v, "unit": units[m]} for m, v in values.items()}
        samples = measure(runner, tally, name, pin, seed, seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics = {}
    for metric, unit in END_TO_END:
        if samples[metric]:
            summary = summarize(samples[metric])
            print(format_summary(metric, unit, summary))
            metrics[metric] = {"value": summary["median"], "unit": unit}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("all", *WORKLOADS), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30,
                    help="measuring time per workload (end-to-end runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hopfcheck", "cli.py")):
        print(f"perfbench: no hopfcheck sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    with open(PINS, "r", encoding="utf-8") as fh:
        pins = json.load(fh)
    os.makedirs(WORK, exist_ok=True)

    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    tally = Tally()
    metrics = {}
    for name in names:
        runner = Runner(time.monotonic() + RUN_DEADLINE_S)
        before = (tally.attempted, tally.failed)
        values = run_workload(runner, tally, name, pins, opts.seed,
                              opts.seconds, opts.trace == 1)
        attempted = tally.attempted - before[0]
        failed = tally.failed - before[1]
        print(f"  {'error_rate':<12} {failed / max(attempted, 1):.4g} "
              f"({failed} failed of {attempted} attempted)")
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + m: v for m, v in values.items()})

    bad = [m for m in metrics if not valid_metric_name(m)]
    if bad:
        raise ValueError(f"invalid metric names: {bad}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
