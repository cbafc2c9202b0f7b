#!/usr/bin/env bash
# Chaos-smoke lane: training survives injected faults and interruption.
# A run under task failures, a corrupted loss and an FFT failure ends
# on the clean run's final checkpoint; so does a data-parallel run
# whose loss is corrupted (one rollback); an interrupted run resumes
# from its checkpoint directory.
#
# Run from anywhere:  scripts/ci/chaos_smoke.sh
# CI (.github/workflows/ci.yml, job chaos-smoke) only calls this file.
set -euo pipefail

repo=$(cd "$(dirname "$0")/../.." && pwd)
cd "$repo"
export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

train() {  # train NAME ARGS...: checkpoints in $work/NAME, output teed
  local name=$1; shift
  python -m repro train --input-size 20 --volume-size 32 \
    --checkpoint-dir "$work/$name" "$@" | tee "$work/$name.out"
}
last_checkpoint() { ls "$work/$1"/ckpt-*.npz | sort | tail -1 | xargs basename; }

echo "== clean reference run"
train clean --rounds 4 --conv-mode fft --checkpoint-every 2

echo "== fault-injected run completes with the same final checkpoint"
REPRO_FAULTS="fail:fwd:3,corrupt:loss:2,fail:fft:1,seed=7" \
  train chaos --rounds 4 --conv-mode fft --task-retries 2 \
  --checkpoint-every 2
grep -q "recovery events:" "$work/chaos.out"
grep -q "loss rollbacks" "$work/chaos.out"
echo "clean=$(last_checkpoint clean) chaos=$(last_checkpoint chaos)"
test "$(last_checkpoint clean)" = "$(last_checkpoint chaos)"

echo "== data-parallel run rolls a corrupted loss back and completes"
REPRO_FAULTS="corrupt:loss:2" \
  train dpchaos --workers 2 --batch 2 --oversubscribe --rounds 4 \
  --conv-mode fft --checkpoint-every 2
grep -q "loss rollbacks 1" "$work/dpchaos.out"
test "$(last_checkpoint clean)" = "$(last_checkpoint dpchaos)"

echo "== interrupted run resumes from checkpoint"
train resume --rounds 2 --conv-mode direct --checkpoint-every 1
train resume --rounds 4 --conv-mode direct --resume --checkpoint-every 1
grep -q "resumed from" "$work/resume.out"
grep -q "2 rounds remaining" "$work/resume.out"
test -f "$work/resume/ckpt-00000004.npz"
echo "chaos smoke: ok"
