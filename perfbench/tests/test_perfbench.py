"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from stats import high_percentile, summarize, valid_metric_name  # noqa: E402
from tracer import Tracer, install_layer_probes, self_times  # noqa: E402
from tracer import summarize as summarize_spans  # noqa: E402


# percentile rule -------------------------------------------------------------

@pytest.mark.parametrize("n, q, rank", [
    (20, 50.0, 10),       # ceil(0.5*20) = 10, ten samples beyond it
    (39, 50.0, 20),       # p75 would leave only 9 beyond
    (40, 75.0, 30),
    (100, 90.0, 90),
    (1000, 99.0, 990),
    (10000, 99.9, 9990),
])
def test_highest_percentile_with_ten_samples_beyond(n, q, rank):
    values = list(range(n, 0, -1))          # unsorted input, values 1..n
    assert high_percentile(values) == (q, rank)
    assert n - rank >= 10


def test_no_percentile_below_twenty_samples():
    assert high_percentile(list(range(19))) is None
    s = summarize([3.0, 1.0, 2.0])
    assert s == {"median": 2.0, "high": None, "count": 3}


def test_summary_reports_sample_count_and_percentile():
    s = summarize([float(i) for i in range(1, 101)])
    assert s["count"] == 100
    assert s["median"] == 50.5
    assert s["high"] == {"p": 90.0, "value": 90.0}


# span arithmetic -------------------------------------------------------------

def test_self_time_on_a_synthetic_span_tree():
    # root [0,100] has children a [10,40] and b [50,70]; a has child c [15,25]
    spans = [(0, 0, 100, -1), (1, 10, 40, 0), (2, 15, 25, 1), (1, 50, 70, 0)]
    assert self_times(spans) == [50, 20, 10, 20]
    agg = summarize_spans(["root", "a", "c"], spans)
    assert agg["a"] == {"calls": 2, "total_ns": 50, "self_ns": 40, "first_ns": 30}
    assert agg["root"]["self_ns"] == 50


def test_self_time_counts_overlapping_children_once():
    spans = [(0, 0, 10, -1), (1, 2, 6, 0), (1, 4, 8, 0), (1, 9, 12, 0)]
    # children cover [2,8] and [9,10] of the parent: 7 of its 10
    assert self_times(spans)[0] == 3


def test_tracer_records_nested_spans_and_restores_the_program():
    from hopfcheck.gmod import GradedMap
    from hopfcheck.rings import RingElement
    from hopfcheck import verify, zoo, ZZ

    mul, call = RingElement.__mul__, GradedMap.__call__
    tracer = Tracer()
    install_layer_probes(tracer)
    try:
        H = zoo.build_algebra("abc", ZZ, 3)
        assert verify.suite_graded_hopf(H).ok()
    finally:
        tracer.uninstall()
    assert RingElement.__mul__ is mul and GradedMap.__call__ is call
    assert "__add__" not in vars(type(H.zero()))
    agg = summarize_spans(tracer.names, tracer.spans)
    assert agg["verify.suite_graded_hopf"]["calls"] == 1
    assert agg["gmod.map_apply"]["calls"] > 0
    top = [s for s in tracer.spans if s[3] == -1]
    assert [tracer.names[s[0]] for s in top] == ["zoo.build_algebra",
                                                  "verify.suite_graded_hopf"]
    assert tracer.cell("rings.mul.calls")[0] > 0


# pins and failure counting ---------------------------------------------------

PIN = {"exit": 0, "report_sha256": None}


def _write_report(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload if isinstance(payload, str) else json.dumps(payload))


def _pin_for(tmp_path, report):
    path = tmp_path / "pinned.json"
    _write_report(path, report)
    return {**PIN, "report_sha256": run.report_digest(path)}


def test_report_matching_its_pin_passes_whatever_the_seed(tmp_path):
    report = {"seed": 1, "ok": True, "suites": []}
    pin = _pin_for(tmp_path, report)
    path = tmp_path / "report.json"
    _write_report(path, {**report, "seed": 99})
    assert run.check_against_pin(pin, 0, path) is None


@pytest.mark.parametrize("payload", [
    '{"seed": 1, "ok": tru',                       # truncated
    "[1, 2, 3]",                                   # not an object
    {"ok": True, "suites": []},                    # no seed field
    {"seed": 1, "ok": False, "suites": []},        # different verdict
])
def test_corrupted_report_counts_as_a_failed_run(tmp_path, payload):
    pin = _pin_for(tmp_path, {"seed": 1, "ok": True, "suites": []})
    path = tmp_path / "report.json"
    _write_report(path, payload)
    reason = run.check_against_pin(pin, 0, path)
    assert reason is not None
    tally = run.Tally()
    tally.record("w run", None)
    tally.record("w run", reason)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_wrong_exit_code_or_missing_witness_fails(tmp_path):
    report = {"seed": 1, "ok": False, "suites": [{"witness": "x"}]}
    pin = _pin_for(tmp_path, report)
    path = tmp_path / "report.json"
    _write_report(path, report)
    assert "exit code" in run.check_against_pin(pin, 2, path)
    assert "witness" in run.check_against_pin({**pin, "witness": "y"}, 0, path)
    assert run.check_against_pin({**pin, "witness": "x"}, 0, path) is None


# metric names ----------------------------------------------------------------

@pytest.mark.parametrize("name", ["setup_s", "gmod.map_apply.self_s",
                                  "fqsym-chains.verify_s", "0x", "a" * 64])
def test_valid_metric_names(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "verify s", "rings/Z", ".hidden",
                                  "_x", "a" * 65, "ms%", None])
def test_invalid_metric_names(name):
    assert not valid_metric_name(name)


def test_benchmark_file_matches_the_metrics_emitted():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, w.why) for name, w in run.WORKLOADS.items()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in run.LAYER_METRICS]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(valid_metric_name(n) for n in names)
