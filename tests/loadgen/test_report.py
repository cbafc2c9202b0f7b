"""Loadtest report document tests: build/validate/dump determinism
and the calibration comparison."""

import json

import pytest

from repro.loadgen import (
    LOADTEST_SCHEMA,
    LoadtestReportError,
    TraceConfig,
    build_report,
    calibration_report,
    dump_report,
    generate_trace,
    latency_stats,
    render_loadtest_report,
    validate_loadtest_report,
)
from repro.loadgen.replay import LiveOutcome
from repro.loadgen.sim import SimRequestOutcome


@pytest.fixture(scope="module")
def trace():
    return generate_trace(TraceConfig(seed=1, duration=20.0,
                                      base_rate=2.0))


def _outcomes(served=30, shed=2, deadline=1):
    """Per-request fates as the simulator emits them."""
    fates = [("served", 0.001 * (i + 1), 0.01 * (i + 1))
             for i in range(served)]
    fates += [("shed", None, None)] * shed
    fates += [("deadline", None, None)] * deadline
    return [SimRequestOutcome(index=i, status=status, arrival=0.0,
                              wait=wait, latency=latency)
            for i, (status, wait, latency) in enumerate(fates)]


def _report(trace, mode="sim", served=30, shed=2):
    return build_report(mode, trace, _outcomes(served, shed),
                        worker_seconds=40.0, workers=2)


class TestLatencyStats:
    def test_empty(self):
        stats = latency_stats([])
        assert stats == {"count": 0, "mean": 0.0, "max": 0.0,
                         "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_order_statistics(self):
        stats = latency_stats([3.0, 1.0, 2.0])
        assert stats["count"] == 3
        assert stats["p50"] == pytest.approx(2.0)
        assert stats["max"] == pytest.approx(3.0)
        assert stats["mean"] == pytest.approx(2.0)

    def test_interpolation(self):
        stats = latency_stats([0.0, 1.0])
        assert stats["p50"] == pytest.approx(0.5)
        assert stats["p99"] == pytest.approx(0.99)


class TestBuildAndValidate:
    def test_roundtrip(self, trace):
        doc = _report(trace)
        assert validate_loadtest_report(doc) is doc
        assert doc["schema"] == LOADTEST_SCHEMA
        assert doc["results"]["submitted"] == 33
        assert doc["results"]["served_fraction"] == pytest.approx(
            30 / 33)
        assert doc["results"]["latency"]["max"] == pytest.approx(0.30)
        assert doc["results"]["wait"]["count"] == 30

    def test_live_outcomes_have_no_wait(self, trace):
        outcomes = [LiveOutcome(index=0, status="served", latency=0.2),
                    LiveOutcome(index=1, status="failed", latency=None)]
        results = build_report("live", trace, outcomes)["results"]
        assert (results["served"], results["failed"]) == (1, 1)
        assert "wait" not in results

    def test_bad_mode_rejected(self, trace):
        with pytest.raises(LoadtestReportError, match="mode"):
            build_report("dreamed", trace, [])

    def test_validation_first_offending_field(self, trace):
        doc = _report(trace)
        doc["results"]["served"] = -1
        with pytest.raises(LoadtestReportError,
                           match="results.served"):
            validate_loadtest_report(doc)

    def test_validation_rejects_non_dict(self):
        with pytest.raises(LoadtestReportError, match="object"):
            validate_loadtest_report([1, 2])
        with pytest.raises(LoadtestReportError, match="schema"):
            validate_loadtest_report({"schema": "other"})

    def test_dump_deterministic_and_parseable(self, trace):
        doc = _report(trace)
        text = dump_report(doc)
        assert text == dump_report(doc)
        assert json.loads(text)["schema"] == LOADTEST_SCHEMA
        assert text.endswith("\n")

    def test_render_table(self, trace):
        doc = _report(trace)
        text = render_loadtest_report(doc)
        assert "loadtest (sim)" in text
        assert "served" in text


class TestCalibration:
    def test_ratios(self, trace):
        sim = _report(trace, mode="sim")
        live = _report(trace, mode="live", served=30, shed=3)
        cal = calibration_report(sim, live)
        assert cal["p50_ratio"] == pytest.approx(1.0)
        assert cal["p99_ratio"] == pytest.approx(1.0)
        assert cal["served_fraction_delta"] == pytest.approx(
            30 / 34 - 30 / 33)

    def test_zero_sim_latency_gives_none(self, trace):
        sim = build_report("sim", trace, [])
        live = _report(trace, mode="live")
        cal = calibration_report(sim, live)
        assert cal["p50_ratio"] is None
