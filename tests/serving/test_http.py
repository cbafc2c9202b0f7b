"""HTTP front end: wire protocol, status mapping, client retry."""

import http.client
import io
import json
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serving import (
    HttpServingClient,
    InferenceServer,
    ServerOverloaded,
    ServingError,
    ServingHTTPServer,
    decode_array,
    encode_array,
    serve_http,
)
from repro.serving.http import MAX_BODY_BYTES


@pytest.fixture
def http_server(registry):
    inference = InferenceServer(registry, num_workers=2, max_queue=2,
                                tile_voxels=1000)
    server = serve_http(inference)
    yield server
    server.stop()


class TestCodec:
    def test_roundtrip(self):
        array = np.random.default_rng(1).standard_normal((3, 4, 5))
        assert np.array_equal(decode_array(encode_array(array)), array)


class TestListenBacklog:
    def test_a_burst_of_connections_waits_in_the_backlog(self, registry):
        """Connections the accept loop has not reached yet queue in the
        listen backlog instead of losing their SYN to a 1 s TCP
        retransmit.  The server is bound but not started, so nothing
        accepts: each connect succeeds only if the backlog has room."""
        import socket

        server = ServingHTTPServer(InferenceServer(registry))
        sockets = []
        try:
            for _ in range(16):
                sock = socket.socket()
                sockets.append(sock)
                sock.settimeout(0.5)
                sock.connect(server.address)
        finally:
            for sock in sockets:
                sock.close()
            server.httpd.server_close()


class TestEndpoints:
    def test_healthz(self, http_server):
        client = HttpServingClient(http_server.url)
        health = client.health()
        assert health["status"] == "ok"
        assert health["models"] == ["small"]
        assert health["max_queue"] == 2

    def test_metrics_endpoint(self, http_server):
        with urllib.request.urlopen(
                f"{http_server.url}/metrics", timeout=30) as response:
            snapshot = json.loads(response.read().decode("utf-8"))
        assert "serving.queue.depth" in snapshot

    def test_infer_roundtrip(self, http_server, volume):
        client = HttpServingClient(http_server.url)
        out = client.infer("small", volume)
        assert out.shape == tuple(v - 4 for v in volume.shape)
        direct = http_server.inference.infer("small", volume)
        assert np.array_equal(out, direct)

    def test_unknown_model_404(self, http_server, volume):
        client = HttpServingClient(http_server.url, max_attempts=1)
        with pytest.raises(ServingError, match="404"):
            client.infer("missing", volume)

    def test_bad_payload_400(self, http_server):
        request = urllib.request.Request(
            f"{http_server.url}/v1/infer?model=small",
            data=b"not an npy", method="POST")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 400

    @pytest.mark.parametrize("length, status", [
        ("twelve", 400), ("-5", 400), (str(MAX_BODY_BYTES + 1), 413)])
    def test_bad_content_length_rejected_unread(self, http_server,
                                                length, status):
        # Only headers are sent: a server that tried to read the
        # declared body would block until the timeout instead.
        host, port = http_server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/infer?model=small")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == status
            assert "Content-Length" in response.read().decode("utf-8")
        finally:
            conn.close()

    def test_volume_smaller_than_fov_400(self, http_server):
        client = HttpServingClient(http_server.url, max_attempts=1)
        with pytest.raises(ServingError, match="400.*field of view"):
            client.infer("small", np.zeros((4, 4, 4)))
        assert http_server.inference.queue_depth == 0

    def test_non_finite_volume_400(self, http_server, volume):
        poisoned = volume.copy()
        poisoned[0, 0, 0] = np.nan
        client = HttpServingClient(http_server.url, max_attempts=1)
        with pytest.raises(ServingError, match="400.*non-finite"):
            client.infer("small", poisoned)
        assert http_server.inference.queue_depth == 0

    def test_complex_volume_400(self, http_server, volume):
        client = HttpServingClient(http_server.url, max_attempts=1)
        with pytest.raises(ServingError, match="400.*complex-valued"):
            client.infer("small", volume + 0.5j)
        assert http_server.inference.queue_depth == 0

    def test_missing_model_param_400(self, http_server, volume):
        request = urllib.request.Request(
            f"{http_server.url}/v1/infer",
            data=encode_array(volume), method="POST")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 400

    def test_unknown_path_404(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(f"{http_server.url}/nope", timeout=30)
        assert info.value.code == 404


class _FailingBackend:
    """A back end whose every request fails with *error*."""

    def __init__(self, error):
        self.error = error

    def start(self):
        return self

    def stop(self):
        pass

    def submit(self, model, volume, **kwargs):
        error = self.error

        class Failed:
            trace_id = ""

            @staticmethod
            def result(timeout=None):
                raise error
        return Failed()


class TestServerFailures:
    @pytest.mark.parametrize("error, status", [
        (ServingError("request 6 failed after 3 attempt(s)"), 503),
        (RuntimeError("kernel exploded"), 500)])
    def test_every_failure_gets_an_answer(self, volume, error, status):
        # A failure no other branch maps must still answer the client
        # rather than drop the connection; a fleet out of failover
        # attempts is worth a resubmission, an unknown error is not.
        with ServingHTTPServer(_FailingBackend(error)) as server:
            request = urllib.request.Request(
                f"{server.url}/v1/infer?model=small",
                data=encode_array(volume), method="POST")
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=30)
        assert info.value.code == status
        assert str(error) in info.value.read().decode("utf-8")
        if status == 503:
            assert info.value.headers["Retry-After"] == "1"


class TestOverloadOverHttp:
    def test_503_with_retry_after(self, http_server, volume):
        import time

        inference = http_server.inference
        inference.gate.clear()
        time.sleep(0.05)
        accepted = [inference.submit("small", volume) for _ in range(2)]
        client = HttpServingClient(http_server.url, max_attempts=1)
        with pytest.raises(ServerOverloaded) as info:
            client.infer("small", volume)
        assert info.value.retry_after > 0
        inference.gate.set()
        for request in accepted:
            request.result(timeout=30)


class TestDrainOverHttp:
    def test_healthz_503_with_body_while_draining(self, http_server):
        http_server.inference.begin_drain()
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(f"{http_server.url}/healthz",
                                   timeout=30)
        assert info.value.code == 503
        # Load balancers key off the 503; operators still get the full
        # document in the body (`repro fleet status` reads it there).
        doc = json.loads(info.value.read().decode("utf-8"))
        assert doc["status"] == "draining"
        assert doc["models"] == ["small"]

    def test_client_health_returns_the_draining_document(self, http_server):
        http_server.inference.begin_drain()
        doc = HttpServingClient(http_server.url).health()
        assert doc["status"] == "draining"
        assert doc["models"] == ["small"]

    def test_client_health_raises_on_a_503_without_a_document(
            self, monkeypatch):
        import io

        def unavailable(url, timeout=None):
            raise urllib.error.HTTPError(url, 503, "Service Unavailable",
                                         {}, io.BytesIO(b"busy"))

        monkeypatch.setattr(urllib.request, "urlopen", unavailable)
        with pytest.raises(ServingError, match="HTTP 503"):
            HttpServingClient("http://127.0.0.1:9").health()

    def test_infer_rejected_while_draining(self, http_server, volume):
        http_server.inference.begin_drain()
        request = urllib.request.Request(
            f"{http_server.url}/v1/infer?model=small",
            data=encode_array(volume), method="POST")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 503
        assert float(info.value.headers["Retry-After"]) > 0

    def test_drain_helper_finishes_then_stops(self, http_server, volume):
        client = HttpServingClient(http_server.url)
        assert client.infer("small", volume).size > 0
        assert http_server.drain(timeout=30)
        # The socket is closed once drained; nothing was dropped.
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            client.health()


class TestPriorityOverHttp:
    def test_priority_param_reaches_admission(self, http_server, volume):
        import time

        inference = http_server.inference
        inference.gate.clear()
        time.sleep(0.05)
        # max_queue=2 → the low tier's limit is 1; the second low-
        # priority POST is shed while capacity remains for normal ones.
        accepted = [inference.submit("small", volume)]
        client = HttpServingClient(http_server.url, max_attempts=1)
        with pytest.raises(ServerOverloaded):
            client.infer("small", volume, priority=2)
        inference.gate.set()
        for request in accepted:
            request.result(timeout=30)

    def test_bad_priority_is_400(self, http_server, volume):
        request = urllib.request.Request(
            f"{http_server.url}/v1/infer?model=small&priority=nope",
            data=encode_array(volume), method="POST")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 400


def post_npy(server, body: bytes):
    """POST *body* to the small model; returns ``(status, body)``."""
    request = urllib.request.Request(
        f"{server.url}/v1/infer?model=small", data=body, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


#: Volume shapes that cover the small model's (5, 5, 5) field of view.
served_shapes = st.tuples(*[st.integers(5, 9)] * 3)

fuzz = settings(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestNpyFuzz:
    """Hostile npy bodies at the HTTP boundary: each is answered 4xx,
    never 500, and the server keeps serving; a Fortran-order volume is
    served bitwise equal to its C-order copy."""

    @staticmethod
    def assert_refused(server, body):
        status, reply = post_npy(server, body)
        assert 400 <= status < 500, (status, reply)
        assert HttpServingClient(server.url).health()["status"] == "ok"

    @fuzz
    @given(shape=served_shapes, data=st.data())
    def test_truncated_header(self, http_server, shape, data):
        body = encode_array(np.zeros(shape))
        header_end = 10 + int.from_bytes(body[8:10], "little")  # npy v1.0
        self.assert_refused(
            http_server, body[:data.draw(st.integers(0, header_end - 1))])

    @fuzz
    @given(shape=served_shapes, extra=st.integers(1, 4),
           axis=st.integers(0, 2))
    def test_header_claims_more_data_than_the_body(self, http_server,
                                                   shape, extra, axis):
        claimed = list(shape)
        claimed[axis] += extra
        buf = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            buf, {"descr": "<f8", "fortran_order": False,
                  "shape": tuple(claimed)})
        self.assert_refused(http_server,
                            buf.getvalue() + np.zeros(shape).tobytes())

    @fuzz
    @given(shape=served_shapes)
    def test_object_dtype(self, http_server, shape):
        buf = io.BytesIO()
        np.save(buf, np.full(shape, 0.5, dtype=object), allow_pickle=True)
        self.assert_refused(http_server, buf.getvalue())

    @fuzz
    @given(shape=served_shapes,
           dtype=st.sampled_from([np.complex64, np.complex128]),
           imag=st.floats(-1.0, 1.0))
    def test_complex_dtype(self, http_server, shape, dtype, imag):
        volume = np.full(shape, 0.25 + 1j * imag, dtype=dtype)
        self.assert_refused(http_server, encode_array(volume))

    @fuzz
    @given(shape=served_shapes, seed=st.integers(0, 2**32 - 1))
    def test_fortran_order_is_served_like_c_order(self, http_server,
                                                  shape, seed):
        volume = np.random.default_rng(seed).standard_normal(shape)
        buf = io.BytesIO()
        np.save(buf, np.asfortranarray(volume))
        fortran = buf.getvalue()
        assert b"'fortran_order': True" in fortran
        status_f, reply_f = post_npy(http_server, fortran)
        status_c, reply_c = post_npy(http_server, encode_array(volume))
        assert status_f == status_c == 200
        out_f, out_c = decode_array(reply_f), decode_array(reply_c)
        assert out_f.shape == out_c.shape
        assert (np.ascontiguousarray(out_f).tobytes()
                == np.ascontiguousarray(out_c).tobytes())
