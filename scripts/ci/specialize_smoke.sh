#!/usr/bin/env bash
# Specialize-smoke lane: ZNNi part (a) end to end.  Plan a per-layer
# specialization from the analytic cost model, refuse an infeasible
# budget with exit 65, serve one request under the plan (with the lock
# checker on) and one without, and assert the specialized output is
# byte-identical to the unspecialized serve — the all-direct bitwise
# contract of docs/serving.md "Per-layer specialization".  Ends with
# the crossover benchmark, which leaves BENCH_znni.json in the repo
# root for CI to upload.
#
# Run from anywhere:  scripts/ci/specialize_smoke.sh
# CI (.github/workflows/ci.yml, job specialize-smoke) only calls this file.
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

echo "== plan the specialization (analytic cost model)"
python -m repro specialize --spec examples/serving_small.spec \
  --volume 32 --tile-voxels 8000 --out "$work/plan.json" \
  | tee "$work/plan.out"
grep -q "^plan: tile" "$work/plan.out"
python -m repro specialize --spec examples/serving_layers.spec \
  --volume 48 --json --no-measure > "$work/layers-plan.json"
python -c "
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc['cost_model'] == 'analytic', doc['cost_model']
assert doc['layer_modes'], doc" "$work/layers-plan.json"

echo "== infeasible budgets are refused with exit 65"
code=0
python -m repro specialize --spec examples/serving_small.spec \
  --volume 32 --tile-voxels 100 2> "$work/infeasible.err" || code=$?
test "$code" -eq 65
grep -q "infeasible" "$work/infeasible.err"

serve_once() {  # serve_once NAME [serve args...]: one request -> $work/NAME.npy
  local name=$1; shift
  REPRO_CHECK=1 python -m repro serve --spec examples/serving_small.spec \
    --port 0 --workers 1 --conv-mode direct "$@" \
    > "$work/serve.log" 2>&1 &
  server_pid=$!
  for _ in $(seq 1 60); do
    grep -q "serving on" "$work/serve.log" && break
    sleep 0.5
  done
  local url
  url=$(sed -n 's/.*serving on \(http[^ ]*\).*/\1/p' "$work/serve.log")
  python -m repro infer --url "$url" --random 32 --seed 99 \
    --timeout 120 --max-attempts 5 --output "$work/$name.npy"
  python -c "
import sys, urllib.request
sys.stdout.write(urllib.request.urlopen(sys.argv[1], timeout=30).read().decode())" \
    "$url/metrics" > "$work/$name-metrics.json"
  kill -TERM "$server_pid"; wait "$server_pid" || true
  server_pid=""
}

echo "== serve one volume specialized and one unspecialized"
serve_once specialized --specialize "$work/plan.json"
grep "specialized: tile" "$work/serve.log"
serve_once reference

echo "== specialized output is byte-identical and counted"
python - "$work" << 'EOF'
import json
import sys

import numpy as np

work = sys.argv[1]
specialized = np.load(f"{work}/specialized.npy")
reference = np.load(f"{work}/reference.npy")
assert np.array_equal(specialized, reference), \
    "specialized serve diverged from the unspecialized pass"
snap = json.load(open(f"{work}/specialized-metrics.json"))
assert snap.get("serving.requests.specialized", 0) >= 1, snap
ref = json.load(open(f"{work}/reference-metrics.json"))
assert ref.get("serving.requests.specialized", 0) == 0, ref
print("ok: bitwise equal,", snap["serving.requests.specialized"],
      "specialized request(s)")
EOF

echo "== crossover + specialized-throughput benchmark"
python -m pytest -q -o addopts='' benchmarks/bench_crossover_fft_direct.py
cat BENCH_znni.json
