"""Serving-side tracing: one connected span tree per request, SLO
histograms fed per request, and the tracing-off no-op path."""

import pytest

from repro.observability.tracing import (
    Tracer,
    get_tracer,
    render_span_tree,
    set_tracer,
)
from repro.serving import InferenceServer


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.setenv("REPRO_TRACING", "1")
    fresh = Tracer(enabled=True, process="serve")
    previous = set_tracer(fresh)
    yield fresh
    set_tracer(previous)


@pytest.fixture
def server(registry):
    srv = InferenceServer(registry, num_workers=1).start()
    yield srv
    srv.stop()


def spans_for(tracer, trace_id):
    return [s for s in tracer.spans() if s.trace_id == trace_id]


class TestTracedRequests:
    def test_request_forms_one_connected_tree(self, tracer, server,
                                              volume):
        server.infer("small", volume, trace_id="req-tree")
        spans = spans_for(tracer, "req-tree")
        names = {s.name for s in spans}
        assert "request" in names
        assert "admission.wait" in names
        assert "serve" in names
        assert any(n.startswith("tile:") for n in names)
        roots = [s for s in spans if s.parent_id is None]
        assert [s.name for s in roots] == ["request"]
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            cursor, hops = span, 0
            while cursor.parent_id is not None:
                cursor = by_id[cursor.parent_id]
                hops += 1
                assert hops < 50
            assert cursor.name == "request"

    def test_tiles_hold_pass_spans_not_tasks(self, tracer, server,
                                             volume):
        """A twin walks its edges on the serving thread: under each
        ``tile:N`` span sit the ``fwd`` / ``sum`` pass spans themselves,
        in the request's trace, and no ``fwd:`` task span."""
        server.infer("small", volume, trace_id="req-walk")
        spans = spans_for(tracer, "req-walk")
        tiles = {s.span_id for s in spans if s.name.startswith("tile:")}
        assert tiles
        children = [s for s in spans if s.parent_id in tiles]
        assert children
        assert {s.category for s in children} == {"pass"}
        assert {s.attrs["op"] for s in children} == {"fwd", "sum"}
        assert not any(s.name.startswith("fwd:") for s in spans)

    def test_caller_trace_id_is_adopted(self, tracer, server, volume):
        request = server.submit("small", volume, trace_id="mine")
        request.result()
        assert request.trace_id == "mine"
        assert spans_for(tracer, "mine")

    def test_fresh_trace_id_per_request(self, tracer, server, volume):
        first = server.submit("small", volume)
        first.result()
        second = server.submit("small", volume)
        second.result()
        assert first.trace_id
        assert second.trace_id
        assert first.trace_id != second.trace_id

    def test_request_span_status_ok(self, tracer, server, volume):
        server.infer("small", volume, trace_id="req-ok")
        request = next(s for s in spans_for(tracer, "req-ok")
                       if s.name == "request")
        assert request.status == "ok"
        assert request.process == "serve"

    def test_span_tree_renders_the_request(self, tracer, server, volume):
        server.infer("small", volume, trace_id="req-render")
        text = render_span_tree(spans_for(tracer, "req-render"),
                                "req-render")
        lines = text.splitlines()
        assert lines[0] == "trace req-render"
        assert lines[1].lstrip().startswith("request")
        assert any("serve" in line for line in lines)

    def test_slo_histograms_fed_per_request(self, tracer, server,
                                            volume):
        # The tracker writes to the process-global registry, so other
        # tests' requests are already in it: assert the delta.
        before = server.slo.report()
        for _ in range(3):
            server.infer("small", volume)
        report = server.slo.report()
        for component in ("e2e", "admission_wait", "service"):
            assert (report[component]["count"]
                    == before[component]["count"] + 3)
        assert report["deadline"]["ok"] == before["deadline"]["ok"] + 3
        assert report["e2e"]["p99"] is not None


class TestTracingOff:
    def test_requests_record_nothing(self, monkeypatch, registry,
                                     volume):
        monkeypatch.delenv("REPRO_TRACING", raising=False)
        previous = set_tracer(Tracer(enabled=False))
        try:
            with InferenceServer(registry, num_workers=1) as server:
                before = server.slo.report()["e2e"]["count"]
                request = server.submit("small", volume)
                request.result()
                assert request.trace_id == ""
                assert request.trace_ctx is None
                assert len(get_tracer().spans()) == 0
                # SLO accounting is independent of tracing.
                assert server.slo.report()["e2e"]["count"] == before + 1
        finally:
            set_tracer(previous)
