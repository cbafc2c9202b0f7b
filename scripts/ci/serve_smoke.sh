#!/usr/bin/env bash
# Serve-smoke lane: train a small checkpoint, serve it over HTTP, and
# check that an oversized volume is tiled and served, that saturating
# load is served or rejected (never dropped), that the rejections show
# in /metrics, and that SIGTERM shuts the server down gracefully.
#
# Run from anywhere:  scripts/ci/serve_smoke.sh
# CI (.github/workflows/ci.yml, job serve-smoke) only calls this file.
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

fetch() {  # GET a URL to stdout, failing on a non-2xx answer
  python -c "
import sys, urllib.request
sys.stdout.write(urllib.request.urlopen(sys.argv[1], timeout=30).read().decode())" "$1"
}

metric() {  # one counter out of the server's /metrics snapshot
  fetch "$url/metrics" | python -c "
import json, sys
print(int(json.load(sys.stdin).get(sys.argv[1], 0)))" "$1"
}

echo "== train a small checkpoint"
python -m repro train --spec examples/serving_small.spec \
  --rounds 2 --input-size 9 --volume-size 24 \
  --conv-mode direct --checkpoint "$work/model.npz"

echo "== start the server"
python -m repro serve --spec examples/serving_small.spec \
  --checkpoint "$work/model.npz" --port 0 --workers 1 \
  --max-queue 4 --tile-voxels 700 \
  --conv-mode direct > "$work/serve.log" 2>&1 &
server_pid=$!
for _ in $(seq 1 60); do
  grep -q "serving on" "$work/serve.log" && break
  sleep 0.5
done
grep "serving on" "$work/serve.log"
url=$(sed -n 's/.*serving on \(http[^ ]*\).*/\1/p' "$work/serve.log")

echo "== oversized volume is tiled and served"
python -m repro infer --url "$url" --random 32 --seed 99 \
  --timeout 120 --max-attempts 5 --output "$work/big.npy"
python -c "
import sys
import numpy as np
dense = np.load(sys.argv[1])
assert dense.shape == (28, 28, 28), dense.shape
print('dense output', dense.shape)" "$work/big.npy"

echo "== saturating load is served or rejected, never dropped"
# Occupy the single worker with one long request (a large volume ->
# tens of thousands of tiles), so the wave below deterministically
# fills the 4-slot queue no matter how fast this host is.
base=$(metric serving.requests.accepted || echo 0)
( code=0
  python -m repro infer --url "$url" --random 120 --seed 0 \
    --timeout 600 --max-attempts 5 >/dev/null 2>&1 || code=$?
  echo "$code" > "$work/plug.code" ) &
for _ in $(seq 1 240); do
  test "$(metric serving.requests.accepted)" -gt "$base" && break
  sleep 0.5
done
# 10 concurrent clients against 1 busy worker + queue of 4: exactly 4
# are admitted (and later served), 6 get 503.
for i in $(seq 1 10); do
  ( code=0
    python -m repro infer --url "$url" --random 24 --seed "$i" \
      --timeout 300 --max-attempts 1 >/dev/null 2>&1 || code=$?
    echo "$code" > "$work/code.$i" ) &
done
wait $(jobs -p | grep -vx "$server_pid")
codes=$(cat "$work"/code.*)
echo "exit codes:" $codes " plug: $(cat "$work/plug.code")"
served=$(echo "$codes" | grep -cx 0 || true)
rejected=$(echo "$codes" | grep -cx 75 || true)
echo "served=$served rejected=$rejected"
test "$served" -ge 4
test "$rejected" -ge 1
test "$((served + rejected))" -eq 10
test "$(cat "$work/plug.code")" -eq 0

echo "== rejections are visible in the metrics endpoint"
fetch "$url/healthz"; echo
fetch "$url/metrics" | python -c "
import json, sys
snap = json.load(sys.stdin)
assert snap['serving.requests.rejected'] >= 1, snap
assert snap['serving.requests.completed'] >= 5, snap
assert snap['serving.requests.failed'] == 0, snap
print('completed', snap['serving.requests.completed'],
      'rejected', snap['serving.requests.rejected'])"

echo "== graceful shutdown on SIGTERM"
kill -TERM "$server_pid"
for _ in $(seq 1 20); do
  grep -q "shutting down" "$work/serve.log" && break
  sleep 0.5
done
grep "shutting down" "$work/serve.log"
wait "$server_pid" || true
server_pid=""
echo "serve-smoke ok"
