"""Per-layer cost model: a fold over the pass spans of a traced run.

The paper's Tables II–III give *analytic* per-layer costs; the ROADMAP's
ZNNi item (arXiv:1606.05688, per-layer algorithm and patch-size
selection) needs *measured* ones — direct vs. FFT crossover depends on
cache behaviour and transform sizes in ways the FLOP formulas cannot
see.  Mathieu et al. made the same point for FFT training: crossover
decisions must be driven by per-layer timings.

There is one clock: the tracer.  ``Network._pass`` opens a child *pass
span* ``(edge, backend-or-kind, op)`` — op is ``fwd``/``bwd``/``upd``
(``sum`` for node accumulations) — around every edge transform, in
every process; a conv pass carries the analytic ``flops``/``bytes`` of
the ``pass_cost`` of the backend that ran it (see
:mod:`repro.tensor.backends`), so the consumer can compute achieved
FLOP/s per primitive.  :func:`cost_model_from_spans` folds those spans
into the versioned ``cost_model.json`` (:data:`COST_MODEL_SCHEMA`), the
input contract of the specializer and the serving simulator.

Nothing is recorded unless tracing is on (``REPRO_TRACING=1``,
``get_tracer().enable()``, or ``repro train --profile-out FILE``).
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterable, Tuple

__all__ = [
    "COST_MODEL_SCHEMA",
    "CostModelError",
    "cost_model_from_spans",
    "validate_cost_model",
    "forward_samples",
    "write_cost_model",
    "load_cost_model",
    "render_cost_model",
]

#: Schema tag of emitted cost-model documents.
COST_MODEL_SCHEMA = "repro.cost_model/v1"

#: The pass-span ops a cost model holds (``sum`` spans are trace-only).
_OPS = ("fwd", "bwd", "upd")


class CostModelError(ValueError):
    """A document failed :func:`validate_cost_model`, or a run's spans
    cannot be folded into a complete one."""


def cost_model_from_spans(spans: Iterable, dropped: int = 0) -> dict:
    """Fold the pass spans among *spans* into a cost-model document:
    one entry per ``(edge, backend, op)`` with sample count, summed
    seconds and analytic FLOPs/bytes, and the conv shapes.

    *dropped* is how many spans the tracer's ring evicted during the
    run (``Tracer.dropped`` after minus before); a model folded from
    what is left would silently under-count, so any loss is refused.
    """
    if dropped:
        raise CostModelError(
            f"the span ring overflowed: {dropped} span(s) were evicted, "
            "so a cost model folded from the rest would be partial "
            "(profile fewer rounds, or raise Tracer(max_spans=...))")
    entries: Dict[Tuple[str, str, str], dict] = {}
    for span in spans:
        attrs = span.attrs
        if span.category != "pass" or attrs.get("op") not in _OPS:
            continue
        key = (attrs["edge"], attrs["backend"], attrs["op"])
        entry = entries.get(key)
        if entry is None:
            entry = entries[key] = {
                "edge": key[0], "backend": key[1], "op": key[2],
                "count": 0, "seconds": 0.0, "flops": 0.0, "bytes": 0.0,
                "image_shape": None, "kernel_shape": None}
        entry["count"] += 1
        entry["seconds"] += span.duration
        entry["flops"] += float(attrs.get("flops", 0.0))
        entry["bytes"] += float(attrs.get("bytes", 0.0))
        for field in ("image_shape", "kernel_shape"):
            if attrs.get(field) is not None:
                entry[field] = [int(v) for v in attrs[field]]
    for entry in entries.values():
        seconds = entry["seconds"]
        entry["mean_seconds"] = seconds / entry["count"]
        entry["flops_per_second"] = (entry["flops"] / seconds
                                     if seconds > 0 else 0.0)
    return {"schema": COST_MODEL_SCHEMA, "created": time.time(),
            "entries": [entries[key] for key in sorted(entries)]}


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


def write_cost_model(path: str, doc: dict) -> str:
    """Validate and write a cost-model document; returns *path*."""
    validate_cost_model(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return path


def load_cost_model(path: str) -> dict:
    """Read and validate a ``cost_model.json``."""
    with open(path, "r", encoding="utf-8") as fh:
        return validate_cost_model(json.load(fh))


def render_cost_model(doc: dict) -> str:
    """Fixed-width table of a cost model."""
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

