"""Hierarchical tracing: context propagation, exporters, flight ring.

The cross-process half of the propagation story (spawn workers shipping
spans over the pipe) lives in ``tests/parallel/test_trace_shipping.py``;
here we cover the single-process contracts: span trees across TaskEngine
threads, the disabled fast path, ring-buffer bounds, and the Chrome /
text / trace-file exporters.
"""

import json
import threading

import pytest

from repro.observability.tracing import (
    Span,
    SpanContext,
    Tracer,
    current_context,
    get_tracer,
    merge_trace_files,
    read_trace_file,
    render_span_tree,
    set_tracer,
    spans_to_chrome_trace,
    summarize_task_spans,
    write_chrome_trace,
    write_trace_file,
)
from repro.scheduler import SerialEngine, Task, TaskEngine


@pytest.fixture
def tracer():
    """A fresh enabled tracer installed as the process global (so Task
    construction and the engines see it), restored afterwards."""
    fresh = Tracer(enabled=True, process="test")
    previous = set_tracer(fresh)
    yield fresh
    set_tracer(previous)


def by_name(spans, name):
    matches = [s for s in spans if s.name == name]
    assert matches, f"no span named {name!r} in {[s.name for s in spans]}"
    return matches[0]


class TestSpanBasics:
    def test_nested_spans_form_a_tree(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild"):
                    pass
        spans = tracer.spans()
        assert len(spans) == 3
        r = by_name(spans, "root")
        c = by_name(spans, "child")
        g = by_name(spans, "grandchild")
        assert r.parent_id is None
        assert c.parent_id == r.span_id
        assert g.parent_id == c.span_id
        assert {s.trace_id for s in spans} == {r.trace_id}
        assert root.trace_id == child.trace_id == r.trace_id

    def test_sibling_spans_share_parent(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        spans = tracer.spans()
        assert by_name(spans, "a").parent_id == root.span_id
        assert by_name(spans, "b").parent_id == root.span_id

    def test_span_timing_is_monotone(self, tracer):
        with tracer.span("t"):
            pass
        span = tracer.spans()[0]
        assert span.end >= span.start
        assert span.duration >= 0

    def test_exception_marks_error_status(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        span = tracer.spans()[0]
        assert span.status == "error"
        assert span.attrs["error"] == "RuntimeError"

    def test_attrs_and_fail(self, tracer):
        with tracer.span("s", category="cat", fixed=1) as span:
            span.set(extra="x")
            span.fail("deadline_exceeded")
        recorded = tracer.spans()[0]
        assert recorded.category == "cat"
        assert recorded.attrs == {"fixed": 1, "extra": "x"}
        assert recorded.status == "deadline_exceeded"

    def test_record_completed_interval(self, tracer):
        ctx = tracer.make_context()
        t0 = tracer.now()
        returned = tracer.record("req", t0, t0 + 0.5, context=ctx,
                                 status="ok", model="m")
        assert returned == ctx
        span = tracer.spans()[0]
        assert span.span_id == ctx.span_id
        assert span.duration == pytest.approx(0.5)

    def test_activate_adopts_remote_parent(self, tracer):
        remote = SpanContext("t-remote", "s-remote")
        with tracer.activate(remote):
            assert tracer.current_context() == remote
            with tracer.span("local"):
                pass
        assert tracer.current_context() is None
        span = tracer.spans()[0]
        assert span.trace_id == "t-remote"
        assert span.parent_id == "s-remote"

    def test_unbalanced_exit_finishes_skipped_spans(self, tracer):
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        # Closing the outer span out of order must unwind the inner one
        # instead of corrupting the thread's stack.
        outer.__exit__(None, None, None)
        assert tracer.current_context() is None
        assert {s.name for s in tracer.spans()} == {"outer", "inner"}

    def test_ring_eviction_is_bounded(self):
        small = Tracer(enabled=True, process="test", max_spans=10)
        for i in range(25):
            with small.span(f"s{i}"):
                pass
        assert len(small) == 10
        assert small.spans()[0].name == "s15"

    def test_span_dict_round_trip(self, tracer):
        with tracer.span("s", category="c", k=1):
            pass
        span = tracer.spans()[0]
        assert Span.from_dict(json.loads(
            json.dumps(span.to_dict()))) == span


class TestDisabledFastPath:
    def test_disabled_span_is_noop(self):
        off = Tracer(enabled=False)
        with off.span("s") as span:
            assert span.context is None
            span.set(x=1)
            span.fail()
        assert len(off) == 0

    def test_disabled_record_and_context(self):
        off = Tracer(enabled=False)
        assert off.record("s", 0.0, 1.0) is None
        assert off.current_context() is None
        with off.activate(SpanContext("t", "s")):
            assert off.current_context() is None

    def test_env_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACING", raising=False)
        assert Tracer().enabled is False
        monkeypatch.setenv("REPRO_TRACING", "1")
        assert Tracer().enabled is True
        monkeypatch.setenv("REPRO_TRACING", "0")
        assert Tracer().enabled is False

    def test_module_current_context_checks_enabled(self):
        previous = set_tracer(Tracer(enabled=False))
        try:
            assert current_context() is None
        finally:
            set_tracer(previous)

    def test_task_captures_no_context_when_disabled(self):
        previous = set_tracer(Tracer(enabled=False))
        try:
            task = Task(lambda: None, name="fwd:x")
            assert task.span_context is None
        finally:
            set_tracer(previous)


class TestEnginePropagation:
    def test_serial_engine_parents_task_spans(self, tracer):
        engine = SerialEngine()
        with tracer.span("root") as root:
            engine.submit(Task(lambda: None, name="fwd:a"))
            engine.run_until_idle()
        spans = tracer.spans()
        assert by_name(spans, "fwd:a").parent_id == root.span_id
        assert by_name(spans, "fwd:a").category == "fwd"

    def test_task_spans_parent_across_engine_threads(self, tracer):
        done = threading.Event()
        with tracer.span("root") as root:
            with TaskEngine(num_workers=2) as engine:
                def child():
                    done.set()

                def parent_body():
                    # Spawned from inside fwd:parent's task span on a
                    # worker thread: must parent on it, not on root.
                    engine.spawn(child, name="fwd:child")

                engine.spawn(parent_body, name="fwd:parent")
                assert done.wait(timeout=10)
        spans = tracer.spans()
        parent = by_name(spans, "fwd:parent")
        child_span = by_name(spans, "fwd:child")
        assert parent.parent_id == root.span_id
        assert child_span.parent_id == parent.span_id
        assert child_span.trace_id == root.trace_id
        assert "worker" in parent.attrs


class TestExporters:
    def _spans(self):
        mk = Span
        return [
            mk("t1", "c:1", None, "round:0", "training", 1.0, 2.0,
               "coordinator", 1),
            mk("t1", "w:1", "c:1", "worker.round", "training", 1.1, 1.9,
               "worker-2", 7),
            mk("t1", "w:2", "w:1", "fwd:conv", "fwd", 1.2, 1.5,
               "worker-2", 7, status="error"),
        ]

    def test_chrome_trace_stable_pids_and_args(self):
        doc = spans_to_chrome_trace(self._spans())
        meta = {e["args"]["name"]: e["pid"] for e in doc["traceEvents"]
                if e["ph"] == "M" and e["name"] == "process_name"}
        assert meta == {"coordinator": 0, "worker-2": 2}
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 3
        root = next(e for e in slices if e["name"] == "round:0")
        assert root["pid"] == 0
        assert root["ts"] == 0.0
        assert root["dur"] == pytest.approx(1e6)
        assert root["args"]["trace_id"] == "t1"
        failed = next(e for e in slices if e["name"] == "fwd:conv")
        assert failed["cname"] == "terrible"

    def test_empty_chrome_trace(self):
        assert spans_to_chrome_trace([]) == {"traceEvents": [],
                                            "displayTimeUnit": "ms"}

    def test_task_slices_carry_worker_wait_and_status(self):
        span = task_span("fwd:a", 1, 10.0, 10.5, queue_wait=0.001,
                         status="retried")
        (event,) = [e for e in spans_to_chrome_trace([span])["traceEvents"]
                    if e["ph"] == "X"]
        assert event["cat"] == "fwd"
        assert event["dur"] == pytest.approx(0.5e6)
        assert event["args"]["worker"] == 1
        assert event["args"]["queue_wait"] == pytest.approx(0.001)
        assert event["args"]["status"] == "retried"
        assert event["cname"] == "terrible"  # anything but ok is red

    def test_write_chrome_trace_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.json")
        assert write_chrome_trace(self._spans(), path) == path
        with open(path) as fh:
            assert json.load(fh) == spans_to_chrome_trace(self._spans())

    def test_render_span_tree_indents_and_promotes_orphans(self):
        spans = self._spans() + [
            Span("t1", "lost:1", "missing-parent", "orphan", "", 1.3,
                 1.4, "worker-9", 1),
        ]
        text = render_span_tree(spans)
        lines = text.splitlines()
        assert lines[0] == "trace t1"
        assert lines[1].startswith("  round:0")
        assert lines[2].startswith("    worker.round")
        assert lines[3].startswith("      fwd:conv")
        assert "[error]" in lines[3]
        # The orphan is printed as a root, not dropped.
        assert any(line.startswith("  orphan") for line in lines)

    def test_render_span_tree_filters_by_trace(self):
        spans = self._spans() + [
            Span("t2", "x:1", None, "other", "", 5.0, 6.0, "serve", 1)]
        assert "other" not in render_span_tree(spans, "t1")
        assert "(no spans)" == render_span_tree(spans, "t-missing")


def task_span(name, worker, start, end, queue_wait=0.0, status="ok",
              process="test"):
    """A span as the engine bracket records it for one task attempt."""
    return Span("t1", f"{process}:{name}:{start}", None, name,
                name.partition(":")[0], start, end, process, 1,
                status=status,
                attrs={"worker": worker, "queue_wait": queue_wait})


class TestTaskSummary:
    def test_summarises_task_spans(self):
        s = summarize_task_spans([
            task_span("fwd:a", 0, 0.0, 1.0),
            task_span("upd:a", 0, 1.0, 1.5),
            task_span("fwd:b", 1, 0.0, 2.0),
        ])
        assert s.tasks == 3
        assert s.span == pytest.approx(2.0)
        assert s.busy_per_worker == {("test", 0): 1.5, ("test", 1): 2.0}
        assert s.time_per_family == {"fwd": 3.0, "upd": 0.5}
        assert s.utilization == pytest.approx(3.5 / 4.0)
        assert str(s).startswith("3 tasks over 2.000s on 2 worker(s); "
                                 "utilization 88%")

    def test_empty(self):
        s = summarize_task_spans([])
        assert s.tasks == 0 and s.utilization == 0.0
        assert s.mean_queue_wait == 0.0

    def test_only_spans_carrying_a_worker_are_tasks(self):
        s = summarize_task_spans([
            Span("t1", "c:1", None, "round:0", "training", 0.0, 9.0,
                 "test", 1),
            task_span("provider", 0, 1.0, 2.0),
        ])
        assert s.tasks == 1 and s.span == pytest.approx(1.0)
        assert s.time_per_family == {"provider": 1.0}

    def test_zero_duration_task(self):
        s = summarize_task_spans([task_span("fwd:instant", 0, 1.0, 1.0)])
        assert s.tasks == 1 and s.span == 0.0
        assert s.utilization == 0.0  # zero span guards the division

    def test_out_of_order_spans_and_queue_wait(self):
        """Spans arriving in non-chronological order (as they do from
        racing workers) still give the right span and totals."""
        s = summarize_task_spans([
            task_span("fwd:late", 0, 2.0, 3.0, queue_wait=0.2),
            task_span("fwd:early", 1, 0.0, 1.0, queue_wait=0.1),
            task_span("fwd:mid", 0, 1.0, 2.0),
        ])
        assert s.span == pytest.approx(3.0)
        assert s.busy_per_worker == {("test", 0): 2.0, ("test", 1): 1.0}
        assert s.mean_queue_wait == pytest.approx(0.1)

    def test_attempts_that_did_not_end_ok_count_as_failed(self):
        s = summarize_task_spans([
            task_span("fwd:ok", 0, 0.0, 1.0),
            task_span("fwd:flaky", 0, 1.0, 2.0, status="retried"),
            task_span("fwd:bad", 0, 2.0, 3.0, status="error"),
        ])
        assert s.failed == 2
        assert s.tasks == 3  # failed attempts still count

    def test_same_worker_index_in_two_processes_is_two_workers(self):
        s = summarize_task_spans([
            task_span("fwd:a", 0, 0.0, 1.0, process="worker-1"),
            task_span("fwd:a", 0, 0.0, 1.0, process="worker-2"),
        ])
        assert len(s.busy_per_worker) == 2
        assert s.utilization == pytest.approx(1.0)

    def test_network_round_contains_every_task_family(self, tracer, rng):
        """A traced training round contains every task family of
        Fig 3."""
        import numpy as np

        from repro.core import Network, SGD
        from repro.graph import build_layered_network

        graph = build_layered_network("CTC", width=2, kernel=2)
        net = Network(graph, input_shape=(8, 8, 8), seed=0,
                      optimizer=SGD(learning_rate=0.01))
        x = rng.standard_normal((8, 8, 8))
        targets = {n.name: np.zeros(n.shape) for n in net.output_nodes}
        net.train_step(x, targets)
        net.synchronize()
        summary = summarize_task_spans(tracer.spans())
        assert {"provider", "fwd", "lossgrad", "bwd"} \
            <= set(summary.time_per_family)
        # updates may run inline via FORCE (then they are part of the
        # forcing task) or as their own queued tasks
        assert summary.tasks >= len(net.edges) * 2


class TestRingOverflow:
    def test_dropped_counts_evicted_spans(self):
        tracer = Tracer(enabled=True, max_spans=2)
        for i in range(5):
            tracer.record(f"s{i}", 0.0, 1.0)
        assert len(tracer) == 2
        assert tracer.dropped == 3


class TestTraceFiles:
    def test_write_read_round_trip(self, tracer, tmp_path):
        with tracer.span("a"):
            pass
        path = str(tmp_path / "trace.json")
        write_trace_file(path, tracer)
        loaded = read_trace_file(path)
        assert loaded == tracer.spans()

    def test_read_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "nope", "spans": []}))
        with pytest.raises(ValueError, match="not a repro.trace/v1"):
            read_trace_file(str(path))

    def test_merge_combines_processes_on_shared_origin(self, tmp_path):
        a = Tracer(enabled=True, process="coordinator")
        b = Tracer(enabled=True, process="worker-1")
        with a.span("round:0"):
            pass
        with b.span("worker.round"):
            pass
        pa = str(tmp_path / "a.json")
        pb = str(tmp_path / "b.json")
        write_trace_file(pa, a)
        write_trace_file(pb, b)
        out = str(tmp_path / "merged.json")
        doc = merge_trace_files([pa, pb], out)
        meta = {e["args"]["name"]: e["pid"] for e in doc["traceEvents"]
                if e["ph"] == "M" and e["name"] == "process_name"}
        assert meta == {"coordinator": 0, "worker-1": 1}
        assert json.load(open(out)) == doc

    def test_drain_and_ingest_relabels_process(self, tracer):
        with tracer.span("a"):
            pass
        payload = tracer.drain()
        assert len(tracer) == 0
        receiver = Tracer(enabled=True, process="coordinator")
        assert receiver.ingest(payload, process="worker-3") == 1
        assert receiver.spans()[0].process == "worker-3"


class TestGlobalTracer:
    def test_get_set_round_trip(self):
        mine = Tracer(enabled=True, process="mine")
        previous = set_tracer(mine)
        try:
            assert get_tracer() is mine
            assert mine.flight is not None  # inherits the global ring
        finally:
            set_tracer(previous)
        assert get_tracer() is previous
