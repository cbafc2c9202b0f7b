#!/usr/bin/env bash
# Loadtest-smoke lane: the capacity-planning loop, end to end.  A 30s
# flash-crowd trace replays through the serving simulator
# byte-identically twice (the determinism contract of `repro loadtest
# --sim`), then the same trace drives a real 2-worker fleet with the
# autoscaler closed-loop between 1 and 3 workers — under REPRO_CHECK=1
# so the scale_to locking stays honest.  Both reports must validate
# against repro.loadtest/v1 and clear a served-fraction floor.
#
# Run from anywhere:  scripts/ci/loadtest_smoke.sh
# CI (.github/workflows/ci.yml, job loadtest-smoke) only calls this file.
set -euo pipefail

repo=$(cd "$(dirname "$0")/../.." && pwd)
cd "$repo"
export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== simulated loadtest is byte-identical across runs"
python -m repro loadtest --sim --scenario flash-crowd \
  --duration 30 --rate 1.2 --seed 7 --size 12:12 \
  --workers 2 --autoscale 1:3 \
  --emit-trace "$work/flash.jsonl" --out "$work/sim-a.json"
python -m repro loadtest --sim --scenario flash-crowd \
  --duration 30 --rate 1.2 --seed 7 --size 12:12 \
  --workers 2 --autoscale 1:3 --out "$work/sim-b.json"
cmp "$work/sim-a.json" "$work/sim-b.json"
echo "ok: sim reports byte-identical"

echo "== live fleet replay with closed-loop autoscaling"
REPRO_CHECK=1 python -m repro loadtest --trace "$work/flash.jsonl" \
  --fleet 2 --autoscale 1:3 --speed 6 \
  --control-interval 0.3 --out "$work/live.json" \
  | tee "$work/live.out"
grep -q "loadtest (live)" "$work/live.out"

echo "== reports validate and clear the served-fraction floor"
python - "$work" << 'EOF'
import json
import sys

from repro.loadgen import calibration_report, validate_loadtest_report

work = sys.argv[1]
sim = validate_loadtest_report(json.load(open(f"{work}/sim-a.json")))
live = validate_loadtest_report(json.load(open(f"{work}/live.json")))
assert sim["mode"] == "sim" and live["mode"] == "live"
assert sim["trace"]["requests"] == live["trace"]["requests"]
assert sim["autoscaler"]["enabled"]
assert live["autoscaler"]["enabled"]
for name, doc in (("sim", sim), ("live", live)):
    frac = doc["results"]["served_fraction"]
    assert frac >= 0.9, (name, frac, doc["results"])
cal = calibration_report(sim, live)
print("ok: served", sim["results"]["served"], "sim /",
      live["results"]["served"], "live;",
      "p99 live/sim ratio", cal["p99_ratio"])
EOF
