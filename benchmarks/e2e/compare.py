"""Compare two results documents of ``run.py``, metric by metric.

    python benchmarks/e2e/compare.py A.json B.json

A is the parent (or the first of two runs of one commit), B the change.
One row per (workload, end-to-end metric): both medians over the
documents' repeats, how much worse B is as a share of A (negative is
better), the metric's bound from ``BENCHMARK.json``, and a verdict:

``ok``          B is not worse than A by more than the bound;
``worse``       it is;
``unresolved``  the spread between either side's own repeats (distance
                between the quartiles as a share of the median) is wider
                than the bound, so the comparison shows nothing.  With a
                single repeat a side has no spread and is never
                unresolved: use ``run.py --repeats``.

Exits non-zero when any row is ``worse``.
"""

import json
import statistics
import sys

from checkout import benchmark_contract


def values_of(document, workload, metric):
    """The metric's value in every run that has it (a document made
    before a metric or workload existed simply has no row for it)."""
    found = (run["workloads"].get(workload, {}).get("metrics", {})
             .get(metric) for run in document["runs"])
    return [entry["value"] for entry in found if entry is not None]


def spread(values):
    """Interquartile distance as a share of the median, as the driver
    computes it; None for fewer than two values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def compare(doc_a, doc_b, contract):
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            a = values_of(doc_a, workload, metric["name"])
            b = values_of(doc_b, workload, metric["name"])
            if not a or not b:
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            change = (median_b - median_a) / abs(median_a)
            worse_by = change if metric["better"] == "lower" else -change
            spreads = [s for s in (spread(a), spread(b)) if s is not None]
            widest = max(spreads, default=None)
            if widest is not None and widest > metric["bound"]:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": metric["name"],
                         "unit": metric["unit"], "a": median_a,
                         "b": median_b, "worse_by": worse_by,
                         "spread": widest, "bound": metric["bound"],
                         "verdict": verdict})
    return rows


def render(rows):
    lines = ["| workload | metric | unit | A | B | B worse by | spread "
             "| bound | verdict |",
             "|---|---|---|---:|---:|---:|---:|---:|---|"]
    for r in rows:
        shown = "-" if r["spread"] is None else f"{100 * r['spread']:.1f} %"
        lines.append(
            f"| {r['workload']} | {r['metric']} | {r['unit']} "
            f"| {r['a']:.6g} | {r['b']:.6g} | {100 * r['worse_by']:+.1f} % "
            f"| {shown} | {100 * r['bound']:.0f} % | {r['verdict']} |")
    return "\n".join(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__)
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    rows = compare(*documents, benchmark_contract())
    print(render(rows))
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("ok", "worse", "unresolved")}
    print(f"\n{counts['ok']} ok, {counts['worse']} worse, "
          f"{counts['unresolved']} unresolved")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
