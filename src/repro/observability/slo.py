"""SLO accounting: serving deadlines -> quantile-capable latency report.

The serving pipeline already *enforces* per-request deadlines
(:class:`repro.serving.DeadlineExceeded`); this module *accounts* for
them.  :class:`SLOTracker` feeds the three latency components of every
finished request into quantile-capable histograms

* ``slo.admission_wait_seconds`` — accepted -> dequeued,
* ``slo.service_seconds`` — dequeued -> stitched output,
* ``slo.e2e_seconds`` — accepted -> resolved,

plus deadline-attainment counters (``slo.requests.ok`` /
``slo.requests.violated``), and renders p50/p95/p99 estimates from the
bucket counts (:meth:`repro.observability.Histogram.quantile`).  The
histograms live in the process-global registry, so the numbers ride
the existing ``/metrics`` endpoint (JSON and Prometheus) for free; a
live ``repro loadtest`` prints the same report after its own table.

Quantiles are *estimates*: linear interpolation inside the histogram
bucket the quantile falls in, exact at bucket boundaries — the same
contract Prometheus's ``histogram_quantile`` gives, chosen here for
the same reason (bounded memory, mergeable across threads).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.observability.metrics import MetricsRegistry, get_registry

__all__ = [
    "SLOTracker",
    "render_slo_report",
]

_COMPONENTS = ("admission_wait", "service", "e2e")


class SLOTracker:
    """Aggregates per-request latency components and deadline outcomes.

    One instance per :class:`~repro.serving.InferenceServer`; all state
    lives in registry metrics (wait-free shards), so ``observe`` takes
    no lock of its own and a disabled registry makes it a no-op.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 objective_seconds: Optional[float] = None) -> None:
        reg = registry if registry is not None else get_registry()
        #: Declared latency objective (used by :meth:`report` to count
        #: attainment even for requests that carried no deadline).
        self.objective_seconds = objective_seconds
        self._h = {
            "admission_wait": reg.histogram("slo.admission_wait_seconds"),
            "service": reg.histogram("slo.service_seconds"),
            "e2e": reg.histogram("slo.e2e_seconds"),
        }
        self._ok = reg.counter("slo.requests.ok")
        self._violated = reg.counter("slo.requests.violated")

    def observe(self, admission_wait: float, service: Optional[float],
                e2e: Optional[float],
                deadline_met: Optional[bool] = None) -> None:
        """Record one finished request.

        *service*/*e2e* are None for requests that never ran (deadline
        expired in the queue).  *deadline_met* is None when the request
        carried no deadline — it then counts against
        :attr:`objective_seconds` when that is set, else as ok.
        """
        self._h["admission_wait"].observe(admission_wait)
        if service is not None:
            self._h["service"].observe(service)
        if e2e is not None:
            self._h["e2e"].observe(e2e)
        if deadline_met is None:
            if self.objective_seconds is not None and e2e is not None:
                deadline_met = e2e <= self.objective_seconds
            else:
                deadline_met = True
        if deadline_met:
            self._ok.inc()
        else:
            self._violated.inc()

    # -- reporting -----------------------------------------------------

    def report(self) -> Dict[str, object]:
        """Quantile estimates per component + deadline attainment."""
        out: Dict[str, object] = {}
        for component in _COMPONENTS:
            hist = self._h[component]
            merged = hist.snapshot()
            out[component] = {
                "count": merged["count"],
                "mean": merged["mean"],
                "max": merged["max"],
                "p50": merged["p50"],
                "p95": merged["p95"],
                "p99": merged["p99"],
            }
        ok = self._ok.value
        violated = self._violated.value
        total = ok + violated
        out["deadline"] = {
            "ok": ok,
            "violated": violated,
            "attainment": ok / total if total else None,
            "objective_seconds": self.objective_seconds,
        }
        return out


def render_slo_report(report: Dict[str, object]) -> str:
    """Fixed-width table of a :meth:`SLOTracker.report` (what a live
    ``repro loadtest`` prints last)."""
    from repro import reporting

    def fmt(value) -> str:
        return f"{value * 1e3:.3f}" if value is not None else "-"

    rows = []
    for component in _COMPONENTS:
        stats = report[component]
        rows.append([
            component, str(stats["count"]), fmt(stats["mean"]),
            fmt(stats["p50"]), fmt(stats["p95"]), fmt(stats["p99"]),
            fmt(stats["max"]),
        ])
    deadline = report["deadline"]
    attainment = deadline["attainment"]
    rows.append([
        "deadline", str(deadline["ok"] + deadline["violated"]),
        "-", "-", "-", "-",
        f"{attainment * 100:.1f}%" if attainment is not None else "-",
    ])
    return reporting.render_table(
        "SLO report (milliseconds)",
        ["component", "n", "mean", "p50", "p95", "p99", "max"],
        rows)
