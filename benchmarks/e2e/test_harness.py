"""Tests of the benchmark harness itself (not part of tier-1):

    python -m pytest benchmarks/e2e -q

They run the real suite in ``--quick`` mode (about a minute in all).
"""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from checkout import HERE, OUT, benchmark_contract, use_checkout_source

use_checkout_source()

import compare  # noqa: E402
import workloads as W  # noqa: E402
from spans import SpanRecorder  # noqa: E402

CONTRACT = benchmark_contract()
WORKLOAD_NAMES = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_py(*args):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    path = tmp_path_factory.mktemp("e2e") / "quick.json"
    stdout = run_py("--quick", "--seed", "5", "--out", str(path))
    return json.loads(path.read_text()), stdout


@pytest.fixture(scope="module")
def quick_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("e2e") / "quick_trace.json"
    stdout = run_py("--quick", "--trace", "--seed", "5", "--out", str(path))
    return json.loads(path.read_text()), stdout


def check_shaped(result, declared):
    """One workload's result against the contract's output shape."""
    assert set(result) >= {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert np.isfinite(got["value"])


def check_document(document, declared, stdout):
    assert document["schema"] == "repro.bench.e2e/v1"
    assert document["claim"] is None
    assert {"git_sha", "nproc", "python", "numpy", "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS"} <= set(document["fingerprint"])
    (run,) = document["runs"]
    assert list(run["workloads"]) == WORKLOAD_NAMES
    for name, result in run["workloads"].items():
        check_shaped(result, declared)
        assert stdout.count(f"== {name} ") == 1
    for metric in declared:
        printed = re.findall(rf"^  {re.escape(metric['name'])} +\S+ "
                             rf"{re.escape(metric['unit'])}$", stdout, re.M)
        assert len(printed) == len(WORKLOAD_NAMES), metric["name"]


def test_contract_names_units_and_workloads():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert set(W.WORKLOADS) == set(WORKLOAD_NAMES)
    metrics = CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    names = WORKLOAD_NAMES + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in CONTRACT["end_to_end"])
            } in CONTRACT["end_to_end"]


def test_quick_suite_emits_every_end_to_end_metric_once(quick):
    check_document(quick[0], CONTRACT["end_to_end"], quick[1])
    for result in quick[0]["runs"][0]["workloads"].values():
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_quick_trace_emits_every_per_layer_metric_once(quick_trace):
    check_document(quick_trace[0], CONTRACT["per_layer"], quick_trace[1])


def test_self_times_and_unaccounted_sum_to_the_traced_wall(quick_trace):
    for name, result in quick_trace[0]["runs"][0]["workloads"].items():
        table = result["table"]
        summed = (sum(row["self_s"] for row in table["rows"].values())
                  + table["unaccounted_s"])
        trace = json.loads((OUT / f"trace_{name}.json").read_text())
        roots = sum(s["end"] - s["start"] for s in trace["loop"]
                    if s["parent"] is None)
        assert summed == pytest.approx(roots, rel=0.05)
        assert "unaccounted" in quick_trace[1]
        if trace["clients"] == 1:
            # One thread: the spans must also cover the wall clock.
            assert summed == pytest.approx(trace["wall_s"], rel=0.05)
        spans = {s["id"]: s for s in trace["loop"]}
        for s in trace["loop"]:
            assert s["end"] >= s["start"]
            if s["parent"] is not None:
                parent = spans[s["parent"]]
                assert parent["start"] <= s["start"]
                assert s["end"] <= parent["end"]


def test_driver_command_ends_with_the_contract_line():
    stdout = run_py("--workload", "serve_small_20", "--seed", "9",
                    "--seconds", "1", "--quick", "--trace", "0")
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    check_shaped(last, CONTRACT["end_to_end"])


def test_percentile_on_a_known_vector():
    values = [15, 20, 35, 40, 50]
    assert W.percentile(values, 0) == 15
    assert W.percentile(values, 50) == 35
    assert W.percentile(values, 100) == 50
    assert W.percentile(values, 40) == pytest.approx(29.0)
    assert W.percentile(values, 90) == pytest.approx(46.0)
    rng = np.random.default_rng(0)
    sample = rng.standard_normal(101).tolist()
    for q in (50, 90, 99):
        assert W.percentile(sample, q) == pytest.approx(
            np.percentile(sample, q))
    with pytest.raises(ValueError):
        W.percentile([], 50)


def test_span_self_time_subtracts_children():
    recorder = SpanRecorder()
    recorder.spans = [
        {"id": 1, "name": "client", "parent": None, "op": None,
         "start": 0.0, "end": 10.0},
        {"id": 2, "name": "op", "parent": 1, "op": 0,
         "start": 1.0, "end": 9.0},
        {"id": 3, "name": "call", "parent": 2, "op": 0,
         "start": 2.0, "end": 5.0},
        {"id": 4, "name": "call", "parent": 2, "op": 0,
         "start": 5.0, "end": 7.0},
    ]
    table = recorder.table()
    assert table["total_s"] == 10.0
    assert table["unaccounted_s"] == 2.0
    assert table["rows"]["op"] == {"calls": 1, "self_s": 3.0}
    assert table["rows"]["call"] == {"calls": 2, "self_s": 5.0}


class CorruptingServer:
    """Replies like the pipeline would, except that the second reply
    carries a NaN, the third has the wrong shape and the fourth
    raises."""

    def __init__(self, dense_shape):
        self.dense_shape = dense_shape
        self.calls = 0

    def infer(self, model, volume, timeout=None):
        self.calls += 1
        reply = np.zeros(self.dense_shape)
        if self.calls == 2:
            reply[0, 0, 0] = np.nan
        elif self.calls == 3:
            reply = reply[1:]
        elif self.calls == 4:
            raise RuntimeError("rejected")
        return reply


def test_a_corrupted_reply_counts_as_a_failed_op(capsys):
    wl = W.WORKLOADS["serve_small_20"]
    session = object.__new__(W.ServeSession)
    session.wl = wl
    session.plan = W.tile_plan(wl)
    session.volumes = W.make_volumes(wl, seed=0)
    session.server = CorruptingServer(session.plan.dense_shape)
    loop = W.closed_loop(session.op, seconds=0.0, clients=1, min_ops=6)
    assert loop.attempted == 6
    assert loop.failed == 3
    assert loop.voxels == 3 * int(np.prod(session.plan.dense_shape))
    assert "rejected" in capsys.readouterr().err


def test_a_failed_gate_exits_non_zero(tmp_path):
    np.savez(tmp_path / "reference.npz",
             *[np.zeros((16, 16, 16))] * W.POOL)
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--mode", "setup",
         "--workload", "serve_small_20", "--seed", "0", "--seconds", "1",
         "--dir", str(tmp_path), "--spawned-at", "0", "--quick"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "differs from the whole-volume run" in done.stderr
    assert done.stdout.strip() == ""


def document(**metrics_by_workload):
    """A results document with one run per listed value."""
    repeats = len(next(iter(next(iter(
        metrics_by_workload.values())).values())))
    return {"runs": [
        {"workloads": {
            workload: {"metrics": {
                name: {"value": values[i], "unit": "x"}
                for name, values in metrics.items()}}
            for workload, metrics in metrics_by_workload.items()}}
        for i in range(repeats)]}


#: compare.py against bounds of its own, whatever BENCHMARK.json says.
TEN_PERCENT = {
    "workloads": [{"name": "serve_small_20"}],
    "end_to_end": [
        {"name": "op_s_p50", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "voxels_per_s", "unit": "voxels/s", "better": "higher",
         "bound": 0.1}]}


def test_compare_verdicts():
    base = {"op_s_p50": [1.0, 1.01, 0.99, 1.0],
            "voxels_per_s": [100.0, 101.0, 99.0, 100.0]}
    slower = {"op_s_p50": [1.2, 1.21, 1.19, 1.2],
              "voxels_per_s": [80.0, 81.0, 79.0, 80.0]}
    noisy = {"op_s_p50": [0.5, 1.5, 0.7, 1.3],
             "voxels_per_s": [100.0, 101.0, 99.0, 100.0]}

    def verdicts(a, b):
        rows = compare.compare(document(serve_small_20=a),
                               document(serve_small_20=b), TEN_PERCENT)
        return {r["metric"]: r["verdict"] for r in rows}

    assert verdicts(base, base) == {"op_s_p50": "ok", "voxels_per_s": "ok"}
    assert verdicts(base, slower) == {"op_s_p50": "worse",
                                      "voxels_per_s": "worse"}
    assert verdicts(slower, base) == {"op_s_p50": "ok",
                                      "voxels_per_s": "ok"}
    assert verdicts(base, noisy) == {"op_s_p50": "unresolved",
                                     "voxels_per_s": "ok"}


def test_compare_exit_code(tmp_path, capsys):
    base = {"op_s_p50": [1.0, 1.0]}
    for name, metrics in (("a", base), ("b", {"op_s_p50": [2.0, 2.0]})):
        (tmp_path / f"{name}.json").write_text(
            json.dumps(document(serve_small_20=metrics)))
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert compare.main([a, a]) == 0
    assert compare.main([a, b]) == 1
    assert "1 worse" in capsys.readouterr().out
