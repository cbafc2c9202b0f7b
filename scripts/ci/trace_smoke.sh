#!/usr/bin/env bash
# Trace-smoke lane: every way of producing a task trace gives the one
# Chrome-trace format, a traced serve request and a traced
# multi-process training run merge into connected traces, the metrics
# snapshot is sane, and tracing-on stays within 5% of tracing-off.
#
# Run from anywhere:  scripts/ci/trace_smoke.sh
# CI (.github/workflows/ci.yml, job trace-smoke) only calls this file.
set -euo pipefail

repo=$(cd "$(dirname "$0")/../.." && pwd)
cd "$repo"
export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"
work=$(mktemp -d)
server_pid=""
cleanup() {
  if [ -n "$server_pid" ]; then kill "$server_pid" 2>/dev/null || true; fi
  rm -rf "$work"
}
trap cleanup EXIT
mkdir "$work/traces"

validate() {  # validate TRACE.json PIDS [tasks]: the one trace format
  python - "$@" << 'EOF'
import json
import sys

path, want_pids = sys.argv[1], {int(p) for p in sys.argv[2].split(",")}
want_tasks = len(sys.argv) > 3
doc = json.load(open(path))
slices = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
assert slices, f"{path}: no slices"
ids = {e["args"]["span_id"] for e in slices}
tasks = 0
for e in slices:
    assert {"name", "ph", "pid", "tid", "ts", "dur"} <= set(e), e
    args = e["args"]
    assert {"trace_id", "span_id", "parent_id", "status"} <= set(args), e
    # Every span's parent must resolve within the trace.
    assert args["parent_id"] is None or args["parent_id"] in ids, e
    if "worker" in args:  # an engine task
        assert "queue_wait" in args and args["queue_wait"] >= 0.0, e
        tasks += 1
pids = {e["pid"] for e in slices}
assert want_pids <= pids, (path, pids)
assert tasks or not want_tasks, f"{path}: no task slices"
print(f"ok: {path}: {len(slices)} slices ({tasks} tasks), "
      f"pids {sorted(pids)}")
EOF
}

echo "== traced training run, one process"
python -m repro train --rounds 2 --input-size 20 --volume-size 32 \
  --conv-mode fft --trace-out "$work/train1.json" --metrics \
  | tee "$work/train1.out"
grep -q "tasks over" "$work/train1.out"
validate "$work/train1.json" 0 tasks

echo "== traced training run, 4 worker processes"
python -m repro train --workers 4 --batch 4 --rounds 2 \
  --input-size 20 --volume-size 32 --conv-mode direct \
  --oversubscribe --trace-out "$work/train4.json" \
  | tee "$work/train4.out"
grep -q "process(es)" "$work/train4.out"
grep -q "tasks over" "$work/train4.out"
validate "$work/train4.json" 0,1,2,3 tasks

echo "== repro trace"
python -m repro trace --out "$work/trace.json" --workers 2 --rounds 2 \
  --input-size 20 --volume-size 32
validate "$work/trace.json" 0 tasks

echo "== metrics snapshot sanity"
python -m repro metrics --rounds 1 --input-size 20 \
  --volume-size 32 --json > "$work/metrics.json"
python - "$work/metrics.json" << 'EOF'
import json
import sys

with open(sys.argv[1]) as fh:
    snap = json.load(fh)
for name in ("queue.pop", "fft_cache.hit", "fft_cache.miss"):
    assert snap.get(name, 0) >= 0, name
assert snap["queue.pop"] > 0
assert any(k.startswith("pool.alloc") and v > 0
           for k, v in snap.items() if not isinstance(v, dict))
print("ok:", len(snap), "metrics")
EOF

echo "== traced serve request"
python -m repro train --spec examples/serving_small.spec \
  --rounds 1 --input-size 9 --volume-size 24 \
  --conv-mode direct --checkpoint "$work/model.npz"
REPRO_TRACING=1 python -m repro serve --spec examples/serving_small.spec \
  --checkpoint "$work/model.npz" --port 0 --workers 1 \
  --conv-mode direct --trace-dir "$work/traces" \
  > "$work/serve.log" 2>&1 &
server_pid=$!
for _ in $(seq 1 60); do
  grep -q "serving on" "$work/serve.log" && break
  sleep 0.5
done
url=$(sed -n 's/.*serving on \(http[^ ]*\).*/\1/p' "$work/serve.log")
REPRO_TRACING=1 python -m repro infer --url "$url" --random 16 --seed 5 \
  --trace-id ci-smoke --output "$work/out.npy"
kill -TERM "$server_pid"
wait "$server_pid" || true
server_pid=""
ls "$work/traces/"

echo "== merged serve trace validates and connects"
python -m repro trace --merge "$work"/traces/trace-serve-*.json \
  --out "$work/merged-serve.json"
python -m repro trace --merge "$work"/traces/trace-serve-*.json \
  --tree | tee "$work/serve-tree.txt"
grep -q "trace ci-smoke" "$work/serve-tree.txt"
validate "$work/merged-serve.json" 0 tasks

echo "== tracing overhead within 5% of tracing-off"
# The overhead-sensitivity workload of
# benchmarks/bench_engine_utilization.py (CTMCT, fft) at a
# representative 32^3 volume, measured as interleaved off/on pairs so
# clock-speed drift cancels.  Span recording costs ~3us/span; at this
# scale that is well under the 5% budget (the bench file keeps a paired
# on/off benchmark at toy 18^3 scale, where the same fixed cost is a
# larger fraction).
python - << 'EOF'
import statistics
import time

import numpy as np

from repro.core import Network, SGD
from repro.graph import build_layered_network
from repro.observability.tracing import Tracer, set_tracer

graph = build_layered_network("CTMCT", width=3, kernel=3,
                              window=2, transfer="tanh")
net = Network(graph, input_shape=(32, 32, 32),
              conv_mode="fft", seed=0, num_workers=1,
              optimizer=SGD(learning_rate=1e-3))
rng = np.random.default_rng(1)
x = rng.standard_normal((32, 32, 32))
targets = {n.name: np.zeros(n.shape)
           for n in net.output_nodes}
tr_on = Tracer(enabled=True)
tr_off = Tracer(enabled=False)

def one(tracer, rounds=4):
    set_tracer(tracer)
    tracer.clear()
    t0 = time.perf_counter()
    for _ in range(rounds):
        net.train_step(x, targets)
    return (time.perf_counter() - t0) / rounds

for _ in range(3):
    one(tr_off)  # warm numpy/FFT caches
offs, ons = [], []
for _ in range(9):
    offs.append(one(tr_off))
    ons.append(one(tr_on))
m_off = statistics.median(offs)
m_on = statistics.median(ons)
overhead = m_on / m_off - 1.0
print(f"off={m_off * 1e3:.2f}ms on={m_on * 1e3:.2f}ms "
      f"overhead={overhead:+.1%}")
set_tracer(tr_on)
assert len(tr_on), "traced rounds recorded no spans"
net.close()
# 5% budget with a 1ms/round floor for runner jitter.
assert m_on <= m_off * 1.05 + 0.001, (m_off, m_on)
EOF
echo "trace-smoke ok"
