#!/usr/bin/env bash
# Fleet-chaos-smoke lane: the serving-fleet chaos invariant, end to
# end.  A 3-worker fleet whose workers are killed and hung mid-load
# serves every in-deadline request bitwise-identically to a clean run,
# the supervisor narrates restarts in `repro fleet status`, and SIGTERM
# drains without dropping anything.  The process-level chaos tests run
# first, under REPRO_CHECK=1 (lock-order checker), to keep the
# router's lock ordering honest.
#
# Run from anywhere:  scripts/ci/fleet_chaos_smoke.sh
# CI (.github/workflows/ci.yml, job fleet-chaos-smoke) only calls this file.
set -euo pipefail

repo=$(cd "$(dirname "$0")/../.." && pwd)
cd "$repo"
export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"
work=$(mktemp -d)
fleet_pid=""
cleanup() {
  if [ -n "$fleet_pid" ]; then kill "$fleet_pid" 2>/dev/null || true; fi
  rm -rf "$work"
}
trap cleanup EXIT

start_fleet() {  # start_fleet NAME: log in $work/NAME.log; sets fleet_pid, url
  python -m repro serve --spec examples/serving_small.spec \
    --port 0 --fleet 3 --workers 1 --max-queue 16 \
    --conv-mode direct > "$work/$1.log" 2>&1 &
  fleet_pid=$!
  for _ in $(seq 1 120); do
    grep -q "serving on" "$work/$1.log" && break
    sleep 0.5
  done
  url=$(sed -n 's/.*serving on \(http[^ ]*\).*/\1/p' "$work/$1.log")
}

drain_fleet() {  # drain_fleet NAME WORD...: SIGTERM, then each WORD is logged
  local name=$1; shift
  kill -TERM "$fleet_pid"
  for _ in $(seq 1 60); do
    grep -q "shutting down" "$work/$name.log" && break
    sleep 0.5
  done
  for word in "$@"; do grep "$word" "$work/$name.log"; done
  wait "$fleet_pid" || true
  fleet_pid=""
}

infer() {  # infer OUTPUT ARGS...: the one seeded request every run repeats
  local output=$1; shift
  python -m repro infer --url "$url" --random 16 --seed 5 \
    --timeout 120 --output "$output" "$@"
}

echo "== fleet chaos tests under the runtime checker"
REPRO_CHECK=1 python -m pytest tests/serving/test_fleet_chaos.py \
  -o addopts='' -q

echo "== clean fleet reference output"
start_fleet clean
infer "$work/clean.npy"
drain_fleet clean "draining" "drained" "shutting down"

echo "== chaos fleet serves bitwise-identically under kill+hang"
# Workers inherit the plan: each worker process wedges its main loop
# for 2s on its 1st request (heartbeats pause but stay under the
# default 5s watchdog) and dies on its 2nd.  Occurrence counts are per
# process, so restarted workers re-arm — sustained chaos, not a
# one-shot.  The pytest step above covers the watchdog-kill and
# quarantine paths.
REPRO_FAULTS="fail:serve_worker:2,hang:serve_worker:1,hang=2" \
  start_fleet chaos
for i in $(seq 1 6); do
  infer "$work/chaos.$i.npy" --max-attempts 5
done
python - "$work" << 'PYEOF'
import sys
import numpy as np

work = sys.argv[1]
clean = np.load(f"{work}/clean.npy")
for i in range(1, 7):
    chaos = np.load(f"{work}/chaos.{i}.npy")
    assert np.array_equal(clean, chaos), \
        f"request {i} diverged from the clean run"
print("ok: 6/6 chaos outputs bitwise equal to the clean run")
PYEOF

echo "== fleet status narrates the worker restarts"
python -m repro fleet status --url "$url"
python -m repro fleet status --url "$url" --json > "$work/status.json"
python - "$work/status.json" << 'PYEOF'
import json
import sys

doc = json.load(open(sys.argv[1]))
assert doc["status"] == "ok", doc["status"]
assert doc["role"] == "fleet"
assert len(doc["workers"]) == 3
restarts = sum(w["restarts"] for w in doc["workers"].values())
assert restarts >= 1, doc["workers"]
reasons = [w["last_restart_reason"]
           for w in doc["workers"].values()
           if w["restarts"]]
assert any("crash" in r or "hang" in r for r in reasons), reasons
print(f"ok: {restarts} restart(s): {reasons}")
PYEOF

echo "== chaos fleet drains cleanly on SIGTERM"
drain_fleet chaos "draining" "shutting down"
echo "fleet-chaos-smoke ok"
