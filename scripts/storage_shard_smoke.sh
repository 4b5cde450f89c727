#!/usr/bin/env bash
# Storage-shard smoke test for the partitioned, self-healing fact store.
# Every durable storage-partitioned run (bench_shard --checkpoint-dir)
# must print a `final:` line — status, rounds, fact
# count, CRC-32 of the serialized instance — bit-identical to the
# fault-free single-process reference:
#
#   1. at every shard count (1, 2, 4, 8);
#   2. under the full chaos matrix — {kill, oom, stall, corrupt} —
#      injected at every other round boundary of a 4-shard run, one
#      fault per run, on that round's command;
#   3. across a mid-run reshard (2 -> 8 storage shards while the chase
#      is running);
#   4. after kill -9 of the whole 4-shard coordinator mid-chase, resumed
#      from the on-disk engine checkpoints under 8 shards (the engine
#      checkpoints are the only durable state; the restarted
#      coordinator seeds its 8-shard fleet from the resumed instance);
#
# and the newest durable engine snapshot bytes must be identical across
# all of the above (cmp, not just CRC).
#
# Usage: scripts/storage_shard_smoke.sh <path-to-bench_shard> [n]
set -u

BENCH="${1:?usage: $0 <bench_shard> [n]}"
N="${2:-80}"
WORK="$(mktemp -d)"
BENCH_PID=""
cleanup() {
  if [ -n "$BENCH_PID" ]; then
    kill -9 "$BENCH_PID" 2>/dev/null
    wait "$BENCH_PID" 2>/dev/null
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM HUP

run_storage() {
  # run_storage <dir> <shards> [flags...]: one durable storage run.
  local dir="$1" shards="$2"
  shift 2
  "$BENCH" --checkpoint-dir "$dir" --durable-n "$N" \
    --shards "$shards" "$@"
}

newest_snap() {
  ls "$1"/chase-*.snap | sort -t- -k2 -n | tail -1
}

echo "== reference: fault-free single-process run =="
REF_DIR="$WORK/ref"
REF_LINE="$(run_storage "$REF_DIR" 1 | grep '^final:')" \
  || { echo "reference run failed"; exit 1; }
echo "$REF_LINE"
ROUNDS="$(echo "$REF_LINE" | sed 's/.*rounds=\([0-9]*\).*/\1/')"

check_final() {
  # check_final <label> <line>: diff a run's final line vs the reference.
  if [ "$2" != "$REF_LINE" ]; then
    echo "FAIL($1): final line differs from fault-free reference run"
    echo "  reference: $REF_LINE"
    echo "  got:       $2"
    exit 1
  fi
  echo "ok($1): $2"
}

check_snap() {
  # check_snap <label> <dir>: newest durable snapshot bytes vs reference.
  if ! cmp -s "$(newest_snap "$REF_DIR")" "$(newest_snap "$2")"; then
    echo "FAIL($1): durable snapshot bytes differ from reference"
    exit 1
  fi
}

echo "== shard-count sweep: 2, 4, 8 storage shards, fault-free =="
for S in 2 4 8; do
  DIR="$WORK/sweep$S"
  LINE="$(run_storage "$DIR" "$S" | grep '^final:')"
  check_final "shards=$S" "$LINE"
  check_snap "shards=$S" "$DIR"
done

echo "== chaos matrix: {kill,oom,stall,corrupt} x every other round boundary =="
for FAULT in kill oom stall corrupt; do
  B=0
  while [ "$B" -le "$ROUNDS" ]; do
    DIR="$WORK/chaos_${FAULT}_${B}"
    OUT="$(run_storage "$DIR" 4 "--chaos-$FAULT=$B:$((B % 4))")"
    if ! echo "$OUT" | grep -q '^storage event:'; then
      echo "FAIL($FAULT@$B): injected fault left no recovery event"
      exit 1
    fi
    check_final "chaos=$FAULT@$B" "$(echo "$OUT" | grep '^final:')"
    check_snap "chaos=$FAULT@$B" "$DIR"
    B=$((B + 2))
  done
done

echo "== mid-run reshard: 2 -> 8 storage shards at round 2 =="
DIR="$WORK/reshard"
OUT="$(run_storage "$DIR" 2 --reshard-at=2 --reshard-to=8)"
if ! echo "$OUT" | grep '^storage event:' | grep -q reshard; then
  echo "FAIL(reshard): no reshard event recorded"; exit 1
fi
check_final "reshard 2->8" "$(echo "$OUT" | grep '^final:')"
check_snap "reshard 2->8" "$DIR"

echo "== coordinator kill -9 mid-chase at 4 shards, resume under 8 =="
KILL_DIR="$WORK/killed"
run_storage "$KILL_DIR" 4 >"$WORK/killed.log" 2>&1 &
BENCH_PID=$!
for _ in $(seq 1 100); do
  if ls "$KILL_DIR"/chase-*.snap >/dev/null 2>&1; then break; fi
  sleep 0.1
done
kill -9 "$BENCH_PID" 2>/dev/null
wait "$BENCH_PID" 2>/dev/null
KILLED_PID="$BENCH_PID"
BENCH_PID=""
if ! ls "$KILL_DIR"/chase-*.snap >/dev/null 2>&1; then
  echo "FAIL: no checkpoint was written before the kill"; exit 1
fi
# The SIGKILL may have stranded storage workers mid-round; they exit on
# their own once their command pipe breaks, and the resumed coordinator
# below reseeds its 8-shard fleet from the resumed instance regardless.
echo "killed coordinator pid $KILLED_PID; state on disk:"
ls "$KILL_DIR" 2>/dev/null

RESUME_OUT="$(run_storage "$KILL_DIR" 8)"
echo "$RESUME_OUT" | grep '^resume:'
if ! echo "$RESUME_OUT" | grep -q 'resumed=yes'; then
  echo "FAIL: resume did not pick up the on-disk checkpoint"; exit 1
fi
check_final "kill9+reshard 4->8" "$(echo "$RESUME_OUT" | grep '^final:')"
check_snap "kill9+reshard 4->8" "$KILL_DIR"

echo "PASS: all storage-partitioned/chaotic/resharded runs match: $REF_LINE"
