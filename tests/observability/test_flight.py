"""Flight recorder: ring bounds, dump documents, crash triggers, and
the REPRO_METRICS=0 no-op path."""

import glob
import json
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import Network
from repro.graph import build_layered_network
from repro.observability.export import prometheus_text
from repro.observability.metrics import (
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.observability.slo import SLOTracker
from repro.observability.tracing import (
    FlightRecorder,
    Tracer,
    flight_dump,
    flight_note,
    get_tracer,
    set_tracer,
)
from repro.resilience.faults import FaultPlan, clear_plan, install_plan
from repro.scheduler import Task, TaskEngine


class TestFlightRing:
    def test_ring_is_bounded(self):
        ring = FlightRecorder(capacity=5)
        for i in range(12):
            ring.note(f"n{i}")
        events = ring.events()
        assert len(events) == 5
        assert events[0]["message"] == "n7"
        assert events[-1]["message"] == "n11"

    def test_spans_enter_the_ring(self):
        ring = FlightRecorder(capacity=8)
        tracer = Tracer(enabled=True, process="test")
        tracer.flight = ring
        with tracer.span("work"):
            pass
        kinds = [e["kind"] for e in ring.events()]
        assert kinds == ["span"]
        assert ring.events()[0]["name"] == "work"

    def test_notes_carry_attrs(self):
        ring = FlightRecorder()
        ring.note("worker death", worker=3, phase="round")
        event = ring.events()[0]
        assert event["kind"] == "note"
        assert event["attrs"] == {"worker": 3, "phase": "round"}

    def test_dump_document_schema(self, tmp_path):
        ring = FlightRecorder()
        ring.note("trouble", detail="x")
        path = str(tmp_path / "flight.json")
        assert ring.dump(path, reason="unit-test") == path
        doc = json.load(open(path))
        assert doc["schema"] == "repro.flight/v1"
        assert doc["reason"] == "unit-test"
        assert doc["pid"] == os.getpid()
        assert doc["events"][0]["message"] == "trouble"
        assert isinstance(doc["metrics"], dict)
        assert ring.dumps == 1

    def test_snapshot_survives_concurrent_appends(self, tmp_path):
        # Bug: events() iterated the live ring, so a note() landing
        # mid-iteration raised "deque mutated during iteration" — and in
        # Engine._attempt's failure path that replaced the real error.
        ring = FlightRecorder(capacity=512)
        for i in range(512):
            ring.note(f"n{i}")
        path = str(tmp_path / "flight.json")
        started, stop = threading.Event(), threading.Event()

        def hammer():
            started.set()
            while not stop.is_set():
                ring.note("noise")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            started.wait(10)
            deadline = time.perf_counter() + 0.5
            calls = 0
            while time.perf_counter() < deadline:
                calls += 1
                if calls % 20:
                    assert len(ring.events()) == 512
                else:
                    ring.dump(path)
        finally:
            stop.set()
            thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert ring.dumps == calls // 20


class TestFlightDumpTrigger:
    def test_noop_without_flight_dir(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLIGHT_DIR", raising=False)
        assert flight_dump("some-reason") is None

    def test_env_dir_opt_in(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        flight_note("before the crash", key="value")
        path = flight_dump("unit/test reason!")
        assert path is not None
        assert os.path.dirname(path) == str(tmp_path)
        name = os.path.basename(path)
        assert name.startswith(f"flight-{os.getpid()}-")
        assert "/" not in name.replace("flight-", "", 1)
        doc = json.load(open(path))
        assert doc["reason"] == "unit/test reason!"
        assert any(e.get("message") == "before the crash"
                   for e in doc["events"])

    def test_explicit_directory_wins(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_FLIGHT_DIR", raising=False)
        path = flight_dump("manual", directory=str(tmp_path))
        assert path is not None and os.path.exists(path)

    def test_unwritable_target_returns_none(self, tmp_path):
        missing = str(tmp_path / "does" / "not" / "exist")
        assert flight_dump("manual", directory=missing) is None


class TestCrashTriggers:
    """Injected faults must leave a dump behind (the observability
    story for unattended runs: REPRO_FLIGHT_DIR + a crash = evidence)."""

    @pytest.fixture(autouse=True)
    def _flight_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        get_tracer().flight.clear()
        yield
        clear_plan()

    def test_fft_degradation_dumps(self, tmp_path):
        install_plan(FaultPlan.from_string("fail:fft:1"))
        graph = build_layered_network("CT", width=1, kernel=3,
                                      transfer="tanh")
        net = Network(graph, input_shape=(8, 8, 8), seed=0,
                      conv_mode="fft", loss="euclidean")
        try:
            with pytest.warns(RuntimeWarning, match="falling back"):
                net.forward(np.zeros((8, 8, 8)))
        finally:
            net.close()
        dumps = glob.glob(str(tmp_path / "flight-*-fft-degraded-*.json"))
        assert len(dumps) == 1
        doc = json.load(open(dumps[0]))
        assert doc["schema"] == "repro.flight/v1"
        assert any(e.get("message") == "FFT degradation"
                   for e in doc["events"])

    def test_engine_fatal_error_dumps(self, tmp_path):
        def boom():
            raise ValueError("fatal by design")

        with pytest.raises(ValueError, match="fatal by design"):
            with TaskEngine(num_workers=1) as engine:
                engine.submit(Task(boom, name="fwd:boom"))
        dumps = glob.glob(str(tmp_path / "flight-*-engine-failed-*.json"))
        assert len(dumps) == 1
        doc = json.load(open(dumps[0]))
        assert any(e.get("message") == "engine task failed fatally"
                   for e in doc["events"])


class TestMetricsDisabledPath:
    @pytest.fixture
    def disabled(self):
        fresh = MetricsRegistry(enabled=False)
        previous = set_registry(fresh)
        yield fresh
        set_registry(previous)

    def test_metric_operations_are_noops(self, disabled):
        disabled.counter("engine.tasks").inc(5)
        disabled.gauge("queue.depth").set(3)
        h = disabled.histogram("slo.e2e_seconds")
        h.observe(1.0)
        assert disabled.counter("engine.tasks").value == 0
        assert h.snapshot()["count"] == 0
        assert h.quantile(0.5) is None

    def test_prometheus_text_shows_untouched_families(self, disabled):
        disabled.counter("engine.tasks").inc()
        text = prometheus_text(disabled)
        assert "repro_engine_tasks_total 0" in text

    def test_slo_tracker_reports_on_disabled_registry(self, disabled):
        slo = SLOTracker(registry=disabled)
        slo.observe(0.1, 0.2, 0.3, deadline_met=True)
        report = slo.report()
        assert report["e2e"]["count"] == 0
        assert report["deadline"]["ok"] == 0
        assert report["deadline"]["attainment"] is None

    def test_tracing_still_works_without_metrics(self, disabled):
        tracer = Tracer(enabled=True, process="test")
        previous = set_tracer(tracer)
        try:
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        finally:
            set_tracer(previous)
        assert len(tracer.spans()) == 2

    def test_env_disables_registry(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "0")
        assert MetricsRegistry(
            enabled=os.environ.get("REPRO_METRICS", "1").lower()
            not in ("0", "false", "off", "no")).enabled is False

    def test_global_registry_is_enabled_by_default(self):
        assert get_registry().enabled is True
