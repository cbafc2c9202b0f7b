"""Serving clients: in-process and HTTP.

Both clients implement the same contract around backpressure: an
overloaded server answers with a *retry-after* hint, and the client —
not the server — decides how long to keep trying.  The in-process
:class:`ServingClient` wraps an :class:`~repro.serving.pipeline.
InferenceServer` directly (embedding the whole serving stack in a
Python process, e.g. for tests and benchmarks); :class:`HttpServingClient`
speaks the ``repro serve`` wire protocol (npy request/response bodies,
503 + ``Retry-After`` for overload, 504 for missed deadlines) over
stdlib ``urllib`` so no dependencies are added.

Retry sleeps are **deadline-capped**: when a request carries a timeout,
the client tracks the absolute deadline across overload retries and
fails fast with :class:`DeadlineExceeded` rather than sleeping past the
point where a resubmission would be dead on arrival; each retry also
passes only the *remaining* budget to the server, so the server-side
deadline matches the client's.
"""

from __future__ import annotations

import io
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Callable, Optional

import numpy as np

from repro.serving.lifecycle import (
    DeadlineExceeded,
    ServerOverloaded,
    ServingError,
)
from repro.serving.pipeline import InferenceServer

__all__ = ["ServingClient", "HttpServingClient", "encode_array",
           "decode_array"]


def _retry_sleep(exc: ServerOverloaded, backoff_cap: float,
                 deadline: Optional[float]) -> float:
    """Seconds to sleep before the next overload retry, capped at the
    remaining deadline budget.

    Raises :class:`DeadlineExceeded` when the sleep would consume the
    whole remaining budget — a resubmission after it would be dead on
    arrival, so fail fast with the deadline error instead.
    """
    sleep_s = min(exc.retry_after, backoff_cap)
    if deadline is not None:
        remaining = deadline - time.monotonic()
        if sleep_s >= remaining:
            raise DeadlineExceeded(
                f"deadline exhausted while backing off from overload "
                f"(retry_after {exc.retry_after:.3f}s >= remaining "
                f"{max(remaining, 0.0):.3f}s)") from exc
    return sleep_s


def _remaining_timeout(timeout: Optional[float],
                       deadline: Optional[float]) -> Optional[float]:
    """The request-timeout to send on this attempt: the remaining
    budget against the absolute *deadline* (None when unbounded)."""
    if deadline is None:
        return None
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise DeadlineExceeded(
            f"deadline of {timeout}s exhausted before resubmission")
    return remaining


def _retry_overloaded(
        attempt_once: Callable[[Optional[float]], np.ndarray],
        timeout: Optional[float], max_attempts: int,
        backoff_cap: float) -> np.ndarray:
    """Call ``attempt_once(remaining timeout)`` until it is not
    overloaded: up to *max_attempts* calls, sleeping the deadline-capped
    ``retry_after`` hint between them; the last call's error propagates.
    """
    deadline = (None if timeout is None
                else time.monotonic() + timeout)
    for _ in range(max_attempts - 1):
        try:
            return attempt_once(_remaining_timeout(timeout, deadline))
        except ServerOverloaded as exc:
            time.sleep(_retry_sleep(exc, backoff_cap, deadline))
    return attempt_once(_remaining_timeout(timeout, deadline))


def encode_array(array: np.ndarray) -> bytes:
    """npy-serialize *array* (the wire format of ``repro serve``)."""
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(array), allow_pickle=False)
    return buf.getvalue()


def decode_array(payload: bytes) -> np.ndarray:
    """Inverse of :func:`encode_array`."""
    return np.load(io.BytesIO(payload), allow_pickle=False)


class ServingClient:
    """In-process client with overload retry.

    On :class:`~repro.serving.lifecycle.ServerOverloaded` the client
    sleeps for the server's ``retry_after`` hint (capped at the
    request's remaining deadline budget) and resubmits, up to
    *max_attempts* total submissions; the final rejection propagates so
    callers can tell sustained saturation from a transient burst.
    """

    def __init__(self, server: InferenceServer, max_attempts: int = 5,
                 backoff_cap: float = 5.0) -> None:
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}")
        self.server = server
        self.max_attempts = max_attempts
        self.backoff_cap = backoff_cap

    def infer(self, model: str, volume: np.ndarray,
              timeout: Optional[float] = None,
              trace_id: Optional[str] = None, **submit_kwargs
              ) -> np.ndarray:
        return _retry_overloaded(
            lambda remaining: self.server.submit(
                model, volume, timeout=remaining, trace_id=trace_id,
                **submit_kwargs).result(),
            timeout, self.max_attempts, self.backoff_cap)


class HttpServingClient:
    """Client for a ``repro serve`` HTTP endpoint (stdlib only).

    Maps the wire protocol back onto the serving exceptions:
    503 → :class:`ServerOverloaded` (honouring ``Retry-After``),
    504 → :class:`DeadlineExceeded`, other HTTP errors →
    :class:`ServingError`.  Overload retries follow the same policy as
    :class:`ServingClient`.
    """

    def __init__(self, base_url: str, max_attempts: int = 5,
                 backoff_cap: float = 5.0,
                 request_timeout: float = 300.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.max_attempts = max_attempts
        self.backoff_cap = backoff_cap
        self.request_timeout = request_timeout
        #: ``X-Trace-Id`` of the last successful response ("" before
        #: the first, or when the server traces nothing).
        self.last_trace_id = ""

    def _post_once(self, model: str, volume: np.ndarray,
                   timeout: Optional[float],
                   trace_id: Optional[str] = None,
                   priority: Optional[int] = None) -> np.ndarray:
        query = {"model": model}
        if timeout is not None:
            query["timeout"] = repr(float(timeout))
        if priority is not None:
            query["priority"] = str(int(priority))
        url = (f"{self.base_url}/v1/infer?"
               f"{urllib.parse.urlencode(query)}")
        headers = {"Content-Type": "application/x-npy"}
        if trace_id:
            # Adopt the caller's trace server-side (X-Trace-Id is
            # echoed back; see repro.serving.http).
            headers["X-Trace-Id"] = trace_id
        request = urllib.request.Request(
            url, data=encode_array(volume), method="POST",
            headers=headers)
        try:
            with urllib.request.urlopen(
                    request, timeout=self.request_timeout) as response:
                self.last_trace_id = response.headers.get("X-Trace-Id", "")
                return decode_array(response.read())
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace").strip()
            if exc.code == 503:
                try:
                    retry_after = float(exc.headers.get("Retry-After", "1"))
                except ValueError:
                    retry_after = 1.0
                raise ServerOverloaded(
                    detail or "server overloaded",
                    retry_after=retry_after) from None
            if exc.code == 504:
                raise DeadlineExceeded(
                    detail or "deadline exceeded") from None
            raise ServingError(
                f"HTTP {exc.code}: {detail or exc.reason}") from None

    def infer(self, model: str, volume: np.ndarray,
              timeout: Optional[float] = None,
              trace_id: Optional[str] = None,
              priority: Optional[int] = None) -> np.ndarray:
        return _retry_overloaded(
            lambda remaining: self._post_once(
                model, volume, remaining, trace_id, priority=priority),
            timeout, self.max_attempts, self.backoff_cap)

    def health(self) -> dict:
        """GET /healthz as a dict.  A draining or unhealthy server
        answers 503 with the same document as the body, and that
        document is returned; any other HTTP error, or a 503 whose body
        is not a health document, raises :class:`ServingError`."""
        import json
        url = f"{self.base_url}/healthz"
        try:
            with urllib.request.urlopen(
                    url, timeout=self.request_timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            if exc.code == 503:
                try:
                    doc = json.loads(exc.read().decode("utf-8"))
                except ValueError:  # UnicodeDecodeError included
                    doc = None
                if isinstance(doc, dict) and "status" in doc:
                    return doc
            raise ServingError(f"HTTP {exc.code} from {url}") from None
