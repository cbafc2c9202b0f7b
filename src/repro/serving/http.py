"""Stdlib HTTP front end for the inference server.

A thin, dependency-free shim: ``http.server.ThreadingHTTPServer``
threads do nothing but decode/encode npy payloads and block on the
:class:`~repro.serving.pipeline.InferenceServer` — all queueing and
backpressure live in the pipeline, so the HTTP layer
cannot re-order or drop anything the pipeline accepted.

Wire protocol (see :mod:`repro.serving.client` for the client side):

* ``POST /v1/infer?model=NAME[&timeout=SECONDS]`` with an npy body →
  200 with the dense output as npy;
* overload → **503** with a ``Retry-After`` header (seconds); so is
  any other serving failure a resubmission may cure (a stopped or
  draining server, a fleet whose workers died under the request past
  its failover budget);
* deadline missed in queue → **504**;
* unknown model → **404**; malformed volume/params, or an unparseable
  ``Content-Length`` → **400**; a body over :data:`MAX_BODY_BYTES` →
  **413**, answered without reading it;
* anything else raised while serving → **500** (every request gets an
  answer; none is left to a dropped connection);
* ``GET /healthz`` → JSON status, model list and queue depth;
* ``GET /metrics`` → JSON snapshot of the process metrics registry, or
  the Prometheus text exposition when the ``Accept`` header asks for
  ``text/plain`` (content negotiation; JSON stays the default).

With tracing enabled (``REPRO_TRACING=1``), an ``X-Trace-Id`` request
header adopts the client's trace for the whole request span tree, and
the response carries the request's trace id back in the same header —
so a client can correlate its own telemetry with a server-side trace.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.observability.export import metrics_snapshot, prometheus_text
from repro.serving.client import decode_array, encode_array
from repro.serving.lifecycle import (
    DeadlineExceeded,
    ServerDraining,
    ServerOverloaded,
    ServingError,
)
from repro.serving.pipeline import InferenceServer

__all__ = ["MAX_BODY_BYTES", "ServingHTTPServer", "serve_http"]

#: Largest request body read off the wire: a 512^3 float64 volume plus
#: its npy header.  Larger volumes are a job for the in-process API.
MAX_BODY_BYTES = 8 * 512 ** 3 + 4096


class _Handler(BaseHTTPRequestHandler):
    # Set by ServingHTTPServer on the handler class.
    inference: InferenceServer

    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # noqa: N802 - stdlib name
        pass  # request logging goes through metrics, not stderr

    # -- helpers -------------------------------------------------------

    def _send(self, code: int, body: bytes, content_type: str,
              extra_headers: Optional[dict] = None) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (extra_headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload: dict,
                   extra_headers: Optional[dict] = None) -> None:
        self._send(code, json.dumps(payload).encode("utf-8"),
                   "application/json", extra_headers)

    def _send_error_text(self, code: int, message: str,
                         extra_headers: Optional[dict] = None) -> None:
        self._send(code, message.encode("utf-8"), "text/plain",
                   extra_headers)

    # -- routes --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib name
        path = urlparse(self.path).path
        if path == "/healthz":
            # health() is robustness-aware: status flips to "draining"
            # during graceful shutdown, and a fleet back end reports
            # per-worker state, restart counts and quarantine reasons.
            health = self.inference.health()
            if health.get("status") == "ok":
                self._send_json(200, health)
            else:
                # Non-ok (draining/stopped/no healthy workers): 503 so
                # external load balancers stop routing here, with the
                # full health document as the body.
                self._send_json(503, health, {"Retry-After": "1"})
        elif path == "/metrics":
            accept = self.headers.get("Accept", "")
            if "text/plain" in accept or "openmetrics" in accept:
                self._send(200, prometheus_text().encode("utf-8"),
                           "text/plain; version=0.0.4; charset=utf-8")
            else:
                self._send_json(200, metrics_snapshot())
        else:
            self._send_error_text(404, f"no such path: {path}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib name
        parsed = urlparse(self.path)
        if parsed.path != "/v1/infer":
            self._send_error_text(404, f"no such path: {parsed.path}")
            return
        query = parse_qs(parsed.query)
        model = (query.get("model") or [None])[0]
        if not model:
            self._send_error_text(400, "missing model= query parameter")
            return
        timeout: Optional[float] = None
        if "timeout" in query:
            try:
                timeout = float(query["timeout"][0])
            except ValueError:
                self._send_error_text(
                    400, f"bad timeout: {query['timeout'][0]!r}")
                return
        priority = 1
        if "priority" in query:
            try:
                priority = int(query["priority"][0])
            except ValueError:
                self._send_error_text(
                    400, f"bad priority: {query['priority'][0]!r}")
                return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot be reused.
            self.close_connection = True
            self._send_error_text(
                400 if length < 0 else 413,
                f"Content-Length must be an integer in "
                f"[0, {MAX_BODY_BYTES}], got "
                f"{self.headers.get('Content-Length')!r}",
                {"Connection": "close"})
            return
        try:
            volume = decode_array(self.rfile.read(length))
        except Exception as exc:
            self._send_error_text(400, f"bad npy payload: {exc}")
            return
        trace_id = self.headers.get("X-Trace-Id") or None
        request = None
        try:
            request = self.inference.submit(model, volume,
                                            timeout=timeout,
                                            trace_id=trace_id,
                                            priority=priority)
            result = request.result()
        except ServerOverloaded as exc:
            self._send_error_text(
                503, str(exc),
                {"Retry-After": f"{exc.retry_after:.3f}"})
        except DeadlineExceeded as exc:
            self._send_error_text(504, str(exc),
                                  self._trace_headers(request))
        except ServerDraining as exc:
            self._send_error_text(
                503, str(exc),
                {"Retry-After": f"{exc.retry_after:.3f}"})
        except KeyError as exc:
            self._send_error_text(404, str(exc))
        except (ValueError, TypeError) as exc:
            self._send_error_text(400, str(exc))
        except ServingError as exc:
            self._send_error_text(503, str(exc), {"Retry-After": "1"})
        except Exception as exc:
            self._send_error_text(500, f"{type(exc).__name__}: {exc}")
        else:
            self._send(200, encode_array(result), "application/x-npy",
                       self._trace_headers(request))

    @staticmethod
    def _trace_headers(request) -> Optional[dict]:
        if request is None or not request.trace_id:
            return None
        return {"X-Trace-Id": request.trace_id}


class _ListeningServer(ThreadingHTTPServer):
    #: Listen backlog.  socketserver's default of 5 drops the SYNs of a
    #: burst of concurrent clients while the accept loop waits for the
    #: GIL, and each dropped one waits out a 1 s TCP retransmit before
    #: it is even admitted or refused.
    request_queue_size = 128
    daemon_threads = True


class ServingHTTPServer:
    """Owns a ThreadingHTTPServer bound to an inference back end.

    The back end is duck-typed: anything with ``submit``/``health``/
    ``start``/``stop`` (and ``begin_drain``/``wait_drained`` for
    graceful drain) works — both the in-process
    :class:`~repro.serving.pipeline.InferenceServer` and the
    multi-process :class:`~repro.serving.fleet.FleetServer`.

    ``start()`` returns immediately (the accept loop runs on a daemon
    thread); ``stop()`` shuts down HTTP first, then the pipeline, so
    in-flight requests resolve before the process exits.  ``drain()``
    is the graceful path: admission stops (``/healthz`` flips to
    draining/503 while HTTP keeps answering, so load balancers see the
    transition), accepted requests finish, then everything shuts down.
    """

    def __init__(self, inference: InferenceServer, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        handler = type("BoundHandler", (_Handler,),
                       {"inference": inference})
        self.inference = inference
        self.httpd = _ListeningServer((host, port), handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServingHTTPServer":
        self.inference.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="znn-serve-http",
            daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.inference.stop()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Gracefully drain the back end, then stop HTTP.

        Returns True when every accepted request resolved within
        *timeout* (leftovers are failed, never dropped).
        """
        self.inference.begin_drain()
        drained = self.inference.wait_drained(timeout)
        self.stop()
        return drained

    def __enter__(self) -> "ServingHTTPServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def serve_http(inference: InferenceServer, host: str = "127.0.0.1",
               port: int = 0) -> ServingHTTPServer:
    """Start an HTTP front end for *inference*; returns the running
    server (stop it with ``.stop()`` or use as a context manager)."""
    return ServingHTTPServer(inference, host=host, port=port).start()
