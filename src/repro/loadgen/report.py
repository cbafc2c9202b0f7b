"""Loadtest report documents (``repro.loadtest/v1``).

One report format for both replay modes, so a simulated and a live
run of the same trace are directly diffable: the calibration report
is literally a field-by-field comparison of two of these documents.

Determinism contract: the report body carries **no wall-clock
timestamps** and is always dumped with sorted keys, so a ``--sim``
replay of a fixed-seed trace is byte-identical across runs (the CLI
regression test asserts this).  Latency quantiles are exact
order-statistics (linear interpolation), not histogram estimates —
the sample counts here are small enough to keep every observation.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence

__all__ = [
    "LOADTEST_SCHEMA",
    "LoadtestReportError",
    "latency_stats",
    "build_report",
    "dump_report",
    "validate_loadtest_report",
    "render_loadtest_report",
    "calibration_report",
]

#: Schema tag of emitted loadtest reports.
LOADTEST_SCHEMA = "repro.loadtest/v1"

#: Request fates a report accounts for.
_STATUSES = ("served", "shed", "deadline", "failed")


class LoadtestReportError(ValueError):
    """A document failed :func:`validate_loadtest_report`."""


def _quantile(ordered: Sequence[float], q: float) -> float:
    """Exact order-statistic quantile of an ascending sequence."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def latency_stats(samples: Sequence[float]) -> Dict[str, float]:
    """count/mean/max/p50/p99 of raw latency samples."""
    ordered = sorted(samples)
    count = len(ordered)
    return {
        "count": count,
        "mean": (sum(ordered) / count) if count else 0.0,
        "max": ordered[-1] if count else 0.0,
        "p50": _quantile(ordered, 0.50),
        "p95": _quantile(ordered, 0.95),
        "p99": _quantile(ordered, 0.99),
    }


# deterministic
def build_report(mode: str, trace, outcomes: Sequence,
                 worker_seconds: float = 0.0,
                 workers: Optional[int] = None,
                 autoscaler: Optional[dict] = None,
                 multiplier: float = 1.0) -> dict:
    """Assemble a ``repro.loadtest/v1`` document.

    *outcomes* are the replay's per-request fates —
    :class:`~repro.loadgen.sim.SimRequestOutcome` or
    :class:`~repro.loadgen.replay.LiveOutcome`: a ``status`` in
    ``served/shed/deadline/failed`` and, for served requests, a
    ``latency`` in seconds.  Simulated outcomes also carry the queue
    ``wait``, reported under ``results.wait``.
    """
    if mode not in ("sim", "live"):
        raise LoadtestReportError(
            f"mode must be 'sim' or 'live', got {mode!r}")
    counts = dict.fromkeys(_STATUSES, 0)
    latencies = []
    waits = []
    for outcome in outcomes:
        counts[outcome.status] += 1
        if outcome.latency is not None:
            latencies.append(outcome.latency)
        if mode == "sim" and outcome.wait is not None:
            waits.append(outcome.wait)
    submitted = sum(counts[s] for s in _STATUSES)
    served = counts["served"]
    config = trace.config
    doc = {
        "schema": LOADTEST_SCHEMA,
        "mode": mode,
        "trace": {
            "name": config.name,
            "seed": config.seed,
            "duration": config.duration,
            "requests": len(trace.requests),
            "mean_rate": trace.mean_rate,
            "multiplier": multiplier,
        },
        "results": {
            "submitted": submitted,
            "served": served,
            "shed": counts["shed"],
            "deadline_missed": counts["deadline"],
            "failed": counts["failed"],
            "served_fraction": (served / submitted) if submitted
            else 0.0,
            "latency": latency_stats(latencies),
        },
        "cost": {
            "worker_seconds": worker_seconds,
            "worker_seconds_per_request": (
                worker_seconds / served) if served else 0.0,
        },
        "workers": workers,
        "autoscaler": autoscaler or {"enabled": False},
    }
    if mode == "sim":
        doc["results"]["wait"] = latency_stats(waits)
    return doc


def validate_loadtest_report(doc: object) -> dict:
    """Check *doc* against :data:`LOADTEST_SCHEMA`; returns it.

    Hand-rolled first-offending-field validation, same contract style
    as :func:`repro.observability.profile.validate_cost_model`.
    """
    if not isinstance(doc, dict):
        raise LoadtestReportError(
            f"report must be an object, got {type(doc).__name__}")
    if doc.get("schema") != LOADTEST_SCHEMA:
        raise LoadtestReportError(
            f"schema must be {LOADTEST_SCHEMA!r}, got "
            f"{doc.get('schema')!r}")
    if doc.get("mode") not in ("sim", "live"):
        raise LoadtestReportError(
            f"mode must be 'sim' or 'live', got {doc.get('mode')!r}")
    trace = doc.get("trace")
    if not isinstance(trace, dict):
        raise LoadtestReportError("trace must be an object")
    for key in ("name",):
        if not isinstance(trace.get(key), str):
            raise LoadtestReportError(f"trace.{key} must be a string")
    for key in ("seed", "requests"):
        if not isinstance(trace.get(key), int):
            raise LoadtestReportError(f"trace.{key} must be an int")
    for key in ("duration", "mean_rate", "multiplier"):
        if not isinstance(trace.get(key), (int, float)):
            raise LoadtestReportError(f"trace.{key} must be a number")
    results = doc.get("results")
    if not isinstance(results, dict):
        raise LoadtestReportError("results must be an object")
    for key in ("submitted", "served", "shed", "deadline_missed",
                "failed"):
        value = results.get(key)
        if not isinstance(value, int) or value < 0:
            raise LoadtestReportError(
                f"results.{key} must be an int >= 0, got {value!r}")
    fraction = results.get("served_fraction")
    if not isinstance(fraction, (int, float)) \
            or not 0.0 <= fraction <= 1.0:
        raise LoadtestReportError(
            f"results.served_fraction must be in [0, 1], got "
            f"{fraction!r}")
    for block in ("latency",) + (
            ("wait",) if "wait" in results else ()):
        stats = results.get(block)
        if not isinstance(stats, dict):
            raise LoadtestReportError(
                f"results.{block} must be an object")
        for key in ("count", "mean", "max", "p50", "p95", "p99"):
            if not isinstance(stats.get(key), (int, float)):
                raise LoadtestReportError(
                    f"results.{block}.{key} must be a number")
    cost = doc.get("cost")
    if not isinstance(cost, dict):
        raise LoadtestReportError("cost must be an object")
    for key in ("worker_seconds", "worker_seconds_per_request"):
        value = cost.get(key)
        if not isinstance(value, (int, float)) or value < 0:
            raise LoadtestReportError(
                f"cost.{key} must be a number >= 0, got {value!r}")
    autoscaler = doc.get("autoscaler")
    if not isinstance(autoscaler, dict) \
            or not isinstance(autoscaler.get("enabled"), bool):
        raise LoadtestReportError(
            "autoscaler must be an object with a boolean 'enabled'")
    return doc


# deterministic
def dump_report(doc: dict) -> str:
    """Canonical serialisation: sorted keys, stable float repr."""
    return json.dumps(validate_loadtest_report(doc), indent=2,
                      sort_keys=True) + "\n"


def render_loadtest_report(doc: dict) -> str:
    """Fixed-width table view (the default ``repro loadtest``
    output)."""
    from repro import reporting

    results = doc["results"]
    latency = results["latency"]
    rows = [
        ["mode", doc["mode"]],
        ["trace", f"{doc['trace']['name']} "
                  f"(seed {doc['trace']['seed']}, "
                  f"{doc['trace']['requests']} requests, "
                  f"{doc['trace']['mean_rate']:.2f} req/s)"],
        ["submitted", str(results["submitted"])],
        ["served", f"{results['served']} "
                   f"({results['served_fraction']:.1%})"],
        ["shed", str(results["shed"])],
        ["deadline missed", str(results["deadline_missed"])],
        ["failed", str(results["failed"])],
        ["latency p50 / p99",
         f"{latency['p50'] * 1e3:.1f} / "
         f"{latency['p99'] * 1e3:.1f} ms"],
        ["worker-seconds", f"{doc['cost']['worker_seconds']:.2f}"],
    ]
    autoscaler = doc.get("autoscaler") or {}
    if autoscaler.get("enabled"):
        rows.append(["autoscaler",
                     f"{autoscaler.get('min')}-{autoscaler.get('max')}"
                     f" workers, {autoscaler.get('decisions')} "
                     f"decisions, final {autoscaler.get('final')}"])
    else:
        rows.append(["workers", str(doc.get("workers"))])
    return reporting.render_table(
        f"loadtest ({doc['mode']})", ["field", "value"], rows)


def calibration_report(sim_doc: dict, live_doc: dict) -> dict:
    """Simulated-vs-live deltas for the same trace.

    Ratios are live/sim (1.0 = the simulator nailed it); the absolute
    served-fraction delta is live - sim.
    """
    validate_loadtest_report(sim_doc)
    validate_loadtest_report(live_doc)

    def ratio(live: float, sim: float) -> Optional[float]:
        return (live / sim) if sim > 0 else None

    sim_lat = sim_doc["results"]["latency"]
    live_lat = live_doc["results"]["latency"]
    return {
        "trace": sim_doc["trace"]["name"],
        "p50_ratio": ratio(live_lat["p50"], sim_lat["p50"]),
        "p99_ratio": ratio(live_lat["p99"], sim_lat["p99"]),
        "served_fraction_delta": (
            live_doc["results"]["served_fraction"]
            - sim_doc["results"]["served_fraction"]),
        "sim": {"p50": sim_lat["p50"], "p99": sim_lat["p99"],
                "served_fraction":
                    sim_doc["results"]["served_fraction"]},
        "live": {"p50": live_lat["p50"], "p99": live_lat["p99"],
                 "served_fraction":
                     live_doc["results"]["served_fraction"]},
    }
