"""Per-layer cost profiling: measured (edge, backend) -> time/FLOPs.

The paper's Tables II–III give *analytic* per-layer costs; the ROADMAP's
ZNNi item (arXiv:1606.05688, per-layer algorithm and patch-size
selection) needs *measured* ones — direct vs. FFT crossover depends on
cache behaviour and transform sizes in ways the FLOP formulas cannot
see.  Mathieu et al. made the same point for FFT training: crossover
decisions must be driven by per-layer timings.

:class:`CostProfiler` aggregates timed samples keyed by
``(edge, backend, op)`` — op is ``fwd``/``bwd``/``upd`` — carrying the
measured seconds plus the analytic FLOPs and bytes of the pass that
ran (the ``pass_cost`` of the backend the instrumented edge executed,
see :mod:`repro.tensor.backends` — so the consumer can compute achieved
FLOP/s per primitive).
The result serialises as a versioned ``cost_model.json``
(:data:`COST_MODEL_SCHEMA`), the input contract of the future
autotuner.

Profiling is **off by default**; enable with ``REPRO_PROFILE=1`` or
``get_profiler().enable()``.  The disabled fast path is one attribute
read, same discipline as metrics and tracing.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.runtime import make_lock
from repro.observability.metrics import get_registry

__all__ = [
    "COST_MODEL_SCHEMA",
    "CostProfiler",
    "CostModelError",
    "get_profiler",
    "set_profiler",
    "validate_cost_model",
    "forward_samples",
    "write_cost_model",
    "load_cost_model",
    "render_cost_model",
]

#: Schema tag of emitted cost-model documents.
COST_MODEL_SCHEMA = "repro.cost_model/v1"


class CostModelError(ValueError):
    """A document failed :func:`validate_cost_model`."""


# ---------------------------------------------------------------------------
# The profiler
# ---------------------------------------------------------------------------


class _Entry:
    """Aggregated samples of one (edge, backend, op) triple."""

    __slots__ = ("edge", "backend", "op", "count", "seconds", "flops",
                 "bytes", "image_shape", "kernel_shape")

    def __init__(self, edge: str, backend: str, op: str) -> None:
        self.edge = edge
        self.backend = backend
        self.op = op
        self.count = 0
        self.seconds = 0.0
        self.flops = 0.0
        self.bytes = 0.0
        self.image_shape: Optional[Tuple[int, ...]] = None
        self.kernel_shape: Optional[Tuple[int, ...]] = None

    def to_dict(self) -> dict:
        seconds = self.seconds
        mean = seconds / self.count if self.count else 0.0
        flop_rate = self.flops / seconds if seconds > 0 else 0.0
        return {
            "edge": self.edge,
            "backend": self.backend,
            "op": self.op,
            "count": self.count,
            "seconds": seconds,
            "mean_seconds": mean,
            "flops": self.flops,
            "flops_per_second": flop_rate,
            "bytes": self.bytes,
            "image_shape": list(self.image_shape)
            if self.image_shape else None,
            "kernel_shape": list(self.kernel_shape)
            if self.kernel_shape else None,
        }


class CostProfiler:
    """Aggregates (edge, backend, op) -> time/FLOPs/bytes samples.

    Instrumentation sites time their own pass (``time.monotonic``
    brackets around the primitive) and call :meth:`record`; the
    profiler only aggregates, so the enabled hot path is one dict
    lookup and a few adds under a short lock, and the disabled path is
    one attribute read.
    """

    def __init__(self, enabled: Optional[bool] = None) -> None:
        if enabled is None:
            enabled = os.environ.get("REPRO_PROFILE", "0").lower() in (
                "1", "true", "on", "yes")
        self.enabled = bool(enabled)
        self._lock = make_lock("observability.profiler")
        self._entries: Dict[Tuple[str, str, str], _Entry] = {}  # guarded-by: _lock
        self._m_samples = get_registry().counter("profile.samples")

    def enable(self) -> "CostProfiler":
        self.enabled = True
        return self

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def record(self, edge: str, backend: str, op: str, seconds: float,
               flops: float = 0.0, bytes_moved: float = 0.0,
               image_shape: Optional[Sequence[int]] = None,
               kernel_shape: Optional[Sequence[int]] = None) -> None:
        """Add one timed sample for an (edge, backend, op) triple."""
        if not self.enabled:
            return
        self._m_samples.inc()
        key = (edge, backend, op)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = _Entry(edge, backend, op)
            entry.count += 1
            entry.seconds += float(seconds)
            entry.flops += float(flops)
            entry.bytes += float(bytes_moved)
            if image_shape is not None:
                entry.image_shape = tuple(int(v) for v in image_shape)
            if kernel_shape is not None:
                entry.kernel_shape = tuple(int(v) for v in kernel_shape)

    # -- export --------------------------------------------------------

    def entries(self) -> List[dict]:
        with self._lock:
            entries = list(self._entries.values())
        entries.sort(key=lambda e: (e.edge, e.backend, e.op))
        return [e.to_dict() for e in entries]

    def cost_model(self) -> dict:
        """The versioned cost-model document (see docs/observability.md
        for the schema the autotuner consumes)."""
        return {
            "schema": COST_MODEL_SCHEMA,
            "created": time.time(),
            "entries": self.entries(),
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


# ---------------------------------------------------------------------------
# Cost-model document I/O + validation (hand-rolled: no jsonschema dep)
# ---------------------------------------------------------------------------

_ENTRY_NUMBER_FIELDS = ("count", "seconds", "mean_seconds", "flops",
                        "flops_per_second", "bytes")


def validate_cost_model(doc: object) -> dict:
    """Check *doc* against :data:`COST_MODEL_SCHEMA`; returns it.

    Raises :class:`CostModelError` naming the first offending field —
    the contract consumers (the autotuner, CI's trace-smoke lane) rely
    on instead of a jsonschema dependency.
    """
    if not isinstance(doc, dict):
        raise CostModelError(f"cost model must be an object, got "
                             f"{type(doc).__name__}")
    if doc.get("schema") != COST_MODEL_SCHEMA:
        raise CostModelError(
            f"schema must be {COST_MODEL_SCHEMA!r}, got "
            f"{doc.get('schema')!r}")
    if not isinstance(doc.get("created"), (int, float)):
        raise CostModelError("created must be a unix timestamp")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise CostModelError("entries must be a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise CostModelError(f"entries[{i}] must be an object")
        for field in ("edge", "backend", "op"):
            if not isinstance(entry.get(field), str) or not entry[field]:
                raise CostModelError(
                    f"entries[{i}].{field} must be a non-empty string")
        if entry["op"] not in ("fwd", "bwd", "upd"):
            raise CostModelError(
                f"entries[{i}].op must be fwd|bwd|upd, got "
                f"{entry['op']!r}")
        for field in _ENTRY_NUMBER_FIELDS:
            value = entry.get(field)
            if not isinstance(value, (int, float)) or value < 0:
                raise CostModelError(
                    f"entries[{i}].{field} must be a non-negative "
                    f"number, got {value!r}")
        for field in ("image_shape", "kernel_shape"):
            value = entry.get(field)
            if value is not None and not (
                    isinstance(value, list)
                    and all(isinstance(v, int) and v > 0 for v in value)):
                raise CostModelError(
                    f"entries[{i}].{field} must be null or a list of "
                    f"positive ints, got {value!r}")
    return doc


def forward_samples(doc: dict) -> Dict[Tuple[str, str], dict]:
    """The one reader of a cost model's forward entries:
    ``(edge, backend)`` -> ``{"flops", "seconds", "mean_seconds",
    "image_shape"}`` in document order.

    Only ``fwd`` entries with positive seconds count; a missing count
    is one sample.  ``mean_seconds`` is the per-forward wall-clock;
    ``image_shape`` is the profiled input shape, None when absent or
    when an edge's entries disagree (unusable for shape scaling).
    """
    samples: Dict[Tuple[str, str], dict] = {}
    for entry in doc.get("entries", []):
        seconds = float(entry.get("seconds", 0.0))
        if entry.get("op") != "fwd" or seconds <= 0.0:
            continue
        shape = entry.get("image_shape")
        shape = tuple(int(v) for v in shape) if shape else None
        sample = samples.setdefault(
            (entry.get("edge"), entry.get("backend")),
            {"flops": 0.0, "seconds": 0.0, "count": 0,
             "image_shape": shape})
        sample["flops"] += float(entry.get("flops", 0.0))
        sample["seconds"] += seconds
        sample["count"] += int(entry.get("count", 0)) or 1
        if sample["image_shape"] != shape:
            sample["image_shape"] = None
    for sample in samples.values():
        sample["mean_seconds"] = sample["seconds"] / sample.pop("count")
    return samples


def write_cost_model(path: str,
                     profiler: Optional[CostProfiler] = None) -> str:
    """Validate and write the profiler's cost model; returns *path*."""
    if profiler is None:
        profiler = get_profiler()
    doc = validate_cost_model(profiler.cost_model())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return path


def load_cost_model(path: str) -> dict:
    """Read and validate a ``cost_model.json``."""
    with open(path, "r", encoding="utf-8") as fh:
        return validate_cost_model(json.load(fh))


def render_cost_model(doc: dict) -> str:
    """Fixed-width table of a cost model (the ``repro profile`` view)."""
    from repro import reporting

    rows = []
    for entry in doc.get("entries", []):
        rows.append([
            entry["edge"], entry["backend"], entry["op"],
            str(entry["count"]),
            f"{entry['mean_seconds'] * 1e3:.3f}",
            f"{entry['flops']:.4g}",
            f"{entry['flops_per_second'] / 1e9:.3f}",
        ])
    return reporting.render_table(
        "per-layer cost model",
        ["edge", "backend", "op", "n", "mean ms", "flops", "gflop/s"],
        rows)


# ---------------------------------------------------------------------------
# Process-global profiler
# ---------------------------------------------------------------------------

_global_profiler = CostProfiler()


def get_profiler() -> CostProfiler:
    """The process-global profiler instrumented edges default to."""
    return _global_profiler


def set_profiler(profiler: CostProfiler) -> CostProfiler:
    """Swap the global profiler (tests); returns the previous one."""
    global _global_profiler
    previous = _global_profiler
    _global_profiler = profiler
    return previous
