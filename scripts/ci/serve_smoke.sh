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
# Occupy the single worker with one long request (the plug: a large
# volume -> many tiles), then send a wave of 10 requests from one
# client process on threads: 1 busy worker + a queue of 4 admits
# exactly 4 (served later) and refuses 6 with 503.  The wave starts
# only once /healthz shows the plug in flight with an empty queue, and
# fails unless the plug was still in flight when all 10 had been
# admitted or refused (the scenario's premise, whatever this host's
# speed).
python - "$url" "$work" <<'PY' &
import json, sys, threading, time, urllib.request

import numpy as np

from repro.serving import HttpServingClient, ServerOverloaded

url, work = sys.argv[1], sys.argv[2]


def get(path):
    with urllib.request.urlopen(url + path, timeout=30) as response:
        return json.load(response)


def decided(snap):
    return (snap["serving.requests.accepted"]
            + snap.get("serving.requests.rejected", 0))


def poll(path, done, what):
    deadline = time.monotonic() + 120
    while not done(doc := get(path)):
        assert time.monotonic() < deadline, f"{what}: {doc}"
        time.sleep(0.01)
    return doc


volumes = [np.random.default_rng(i).standard_normal((24, 24, 24))
           for i in range(1, 11)]
codes = [None] * 10
go = threading.Event()


def send(i):
    client = HttpServingClient(url, max_attempts=1)
    go.wait()
    try:
        client.infer("default", volumes[i], timeout=300)
        codes[i] = 0
    except ServerOverloaded:
        codes[i] = 75
    except Exception as exc:
        print(f"wave request {i + 1}: {type(exc).__name__}: {exc}")
        codes[i] = 1


threads = [threading.Thread(target=send, args=(i,), daemon=True)
           for i in range(10)]
for t in threads:
    t.start()
open(f"{work}/wave.ready", "w").close()
poll("/healthz", lambda h: h["inflight"] == 1 and h["queue_depth"] == 0,
     "the plug never went in flight")
before = get("/metrics")
t_go = time.monotonic()
go.set()
snap = poll("/metrics", lambda m: decided(m) >= decided(before) + 10,
            "the wave was never decided")
assert snap["serving.requests.completed"] \
    == before["serving.requests.completed"], \
    "premise broken: the plug finished before the wave was decided"
print(f"wave decided in {time.monotonic() - t_go:.3f}s, plug in flight")
for t in threads:
    t.join()
for i, code in enumerate(codes, 1):
    with open(f"{work}/code.{i}", "w") as fh:
        fh.write(f"{code}\n")
PY
wave_pid=$!
for _ in $(seq 1 240); do
  test -e "$work/wave.ready" && break
  kill -0 "$wave_pid"  # the wave died before it was ready
  sleep 0.5
done
( code=0
  python -m repro infer --url "$url" --random 120 --seed 0 \
    --timeout 600 --max-attempts 5 >/dev/null 2>&1 || code=$?
  echo "$code" > "$work/plug.code" ) &
plug_pid=$!
wait "$wave_pid"
wait "$plug_pid"
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
