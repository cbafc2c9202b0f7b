#!/usr/bin/env bash
# Trace-smoke lane: `repro train` is the one instrumented run — its
# --trace-out gives the one Chrome-trace format (task slices with pass
# slices inside), its --profile-out the cost model folded from the same
# spans, its --metrics the registry table; a traced serve request and a
# traced multi-process training run merge into connected traces; and
# tracing-on (pass spans included) stays within 5% of tracing-off.
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
tasks = passes = 0
for e in slices:
    assert {"name", "ph", "pid", "tid", "ts", "dur"} <= set(e), e
    args = e["args"]
    assert {"trace_id", "span_id", "parent_id", "status"} <= set(args), e
    # Every span's parent must resolve within the trace.
    assert args["parent_id"] is None or args["parent_id"] in ids, e
    if "worker" in args:  # an engine task
        assert "queue_wait" in args and args["queue_wait"] >= 0.0, e
        tasks += 1
    if e["cat"] == "pass":  # what a task did: one edge or node pass
        assert {"edge", "backend", "op"} <= set(args), e
        assert "worker" not in args and args["parent_id"] in ids, e
        passes += 1
pids = {e["pid"] for e in slices}
assert want_pids <= pids, (path, pids)
assert (tasks and passes) or not want_tasks, f"{path}: no task slices"
print(f"ok: {path}: {len(slices)} slices ({tasks} tasks, {passes} "
      f"passes), pids {sorted(pids)}")
EOF
}

echo "== instrumented training run: trace, cost model, metrics"
python -m repro train --rounds 2 --input-size 20 --volume-size 32 \
  --conv-mode fft --trace-out "$work/train1.json" \
  --profile-out "$work/cost_model.json" --metrics \
  | tee "$work/train1.out"
grep -q "tasks over" "$work/train1.out"
grep -q "cost model written" "$work/train1.out"
validate "$work/train1.json" 0 tasks

echo "== cost model: conv x fwd/bwd/upd, transfer and filter edges too"
python - "$work/cost_model.json" << 'EOF'
import sys

from repro.loadgen import ServiceModel
from repro.observability.profile import load_cost_model
from repro.serving.specialize import CostModel

doc = load_cost_model(sys.argv[1])  # validates against the schema
ops = {}
for e in doc["entries"]:
    ops.setdefault((e["edge"], e["backend"]), set()).add(e["op"])
    assert e["count"] == 2 and e["seconds"] > 0, e
conv = {k: v for k, v in ops.items() if k[1] == "fft"}
assert conv and all(v == {"fwd", "bwd", "upd"} for v in conv.values()), conv
assert all(e["flops"] > 0 and e["image_shape"] and e["kernel_shape"]
           for e in doc["entries"] if e["backend"] == "fft")
kinds = {backend for _, backend in ops}
assert {"transfer", "filter"} <= kinds, kinds
assert CostModel(doc).measured
assert ServiceModel.from_cost_model(doc).seconds_per_voxel > 0
print(f"ok: {len(doc['entries'])} entries, {len(conv)} conv edges, "
      f"kinds {sorted(kinds)}")
EOF

echo "== metrics table sanity"
for name in queue.pop fft_cache.hit fft_cache.miss pool.alloc train.rounds
do
  grep -q "$name" "$work/train1.out" || { echo "no $name row"; exit 1; }
done

echo "== traced training run, 4 worker processes"
python -m repro train --workers 4 --batch 4 --rounds 2 \
  --input-size 20 --volume-size 32 --conv-mode direct \
  --oversubscribe --trace-out "$work/train4.json" \
  | tee "$work/train4.out"
grep -q "process(es)" "$work/train4.out"
grep -q "tasks over" "$work/train4.out"
validate "$work/train4.json" 0,1,2,3 tasks

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
# A small CTMCT fft net at a representative 32^3 volume, off and on in
# interleaved rounds so clock-speed drift cancels; each side's A/A
# spread, the spans per step and the overhead per span are printed
# beside the overhead.  A span costs ~3us in a tight loop and ~6-12us
# between a step's conv passes (EXPERIMENTS.md "Tracing inside its
# budget"), and bench.trace_overhead_share tracks the same share per
# workload.
python - << 'EOF'
import numpy as np

from repro.core import Network, SGD
from repro.graph import build_layered_network
from repro.observability.tracing import Tracer, set_tracer
from repro.utils.timing import time_interleaved

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
STEPS = 4  # train steps per timed call

def steps(tracer):
    set_tracer(tracer)
    tracer.clear()
    for _ in range(STEPS):
        net.train_step(x, targets)

timings = time_interleaved({"off": lambda: steps(tr_off),
                            "on": lambda: steps(tr_on)}, 9)
m_off = timings["off"].median / STEPS
m_on = timings["on"].median / STEPS
overhead = m_on / m_off - 1.0
set_tracer(tr_on)
assert len(tr_on), "traced rounds recorded no spans"
spans = len(tr_on) / STEPS  # the last traced call's steps
print(f"off={m_off * 1e3:.2f}ms on={m_on * 1e3:.2f}ms "
      f"overhead={overhead:+.1%} (A/A spread off "
      f"{timings['off'].spread:+.1%}, on {timings['on'].spread:+.1%}); "
      f"{spans:.0f} spans/step, "
      f"{(m_on - m_off) / spans * 1e6:+.1f}us overhead/span")
net.close()
# 5% budget with a 1ms/round floor for runner jitter.
assert m_on <= m_off * 1.05 + 0.001, (m_off, m_on)
EOF
echo "trace-smoke ok"
