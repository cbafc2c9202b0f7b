#!/usr/bin/env bash
# Data-parallel smoke lane: the acceptance contract end to end on a
# real multi-core host.  --workers W gives a bitwise-identical state
# digest for any W, an interrupted run resumed with --resume ends on
# the digest of an uninterrupted one, the worker-count guard refuses
# oversubscription, and the throughput benchmark records (and on >= 4
# CPUs asserts) the speedup into BENCH_dataparallel.json.
#
# Run from anywhere:  scripts/ci/dataparallel_smoke.sh
# CI (.github/workflows/ci.yml, job dataparallel-smoke) only calls this
# file (and uploads the benchmark JSON it leaves in the repo root).
set -euo pipefail

repo=$(cd "$(dirname "$0")/../.." && pwd)
cd "$repo"
export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

train() {  # train OUT ARGS...: one small data-parallel run, teed to OUT
  local out=$1; shift
  python -m repro train --input-size 20 --volume-size 32 \
    --conv-mode direct --oversubscribe "$@" | tee "$out"
}
digest() { grep '^state digest:' "$1"; }

echo "== golden determinism (single- and two-process)"
python -m pytest -q -o addopts='' tests/baselines/test_golden_determinism.py

echo "== CLI digest is worker-count invariant"
for w in 1 2 4; do
  train "$work/w$w.out" --workers "$w" --batch 4 --rounds 2 --seed 11
done
test "$(digest "$work/w1.out")" = "$(digest "$work/w2.out")"
test "$(digest "$work/w1.out")" = "$(digest "$work/w4.out")"

echo "== interrupted run resumes to the uninterrupted digest"
job=(--workers 2 --batch 2 --seed 5 --checkpoint-every 2)
train "$work/straight.out" "${job[@]}" --rounds 4 \
  --checkpoint-dir "$work/straight"
train "$work/first.out" "${job[@]}" --rounds 2 \
  --checkpoint-dir "$work/resumed"
train "$work/resumed.out" "${job[@]}" --rounds 4 --resume \
  --checkpoint-dir "$work/resumed"
grep -q "resumed from" "$work/resumed.out"
grep -q "2 rounds remaining" "$work/resumed.out"
test -f "$work/resumed/ckpt-00000004.npz"
test "$(digest "$work/straight.out")" = "$(digest "$work/resumed.out")"

echo "== worker-count guard refuses oversubscription"
code=0
python -m repro train --workers 999 --rounds 1 --input-size 20 \
  --volume-size 32 2> "$work/guard.err" || code=$?
test "$code" -eq 2
grep -q "exceeds the" "$work/guard.err"

echo "== throughput benchmark (asserts >= 1.5x at 4 workers)"
python -m pytest -q -o addopts='' benchmarks/bench_dataparallel.py
cat BENCH_dataparallel.json
echo
echo "dataparallel smoke: ok"
