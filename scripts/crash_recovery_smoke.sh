#!/usr/bin/env bash
# Crash-recovery smoke test: run the durable chase to completion, run it
# again with a kill -9 mid-flight, resume from the on-disk checkpoint,
# and require the resumed run's final instance line (status, rounds,
# fact count, CRC-32 of the serialized instance) to match the
# uninterrupted run bit-for-bit. Then corrupt the newest snapshot and
# require the resume to fall back to the previous good generation with
# the same final line.
#
# Finally, replay a fixed configuration against the pre-recorded golden
# checkpoint in tests/golden/: the final line and the newest snapshot
# bytes must match what was recorded when the format was frozen, so a
# data-layout or codec change that silently shifts insertion order /
# null ids / snapshot bytes fails here even if it is self-consistent.
#
# Usage: scripts/crash_recovery_smoke.sh <path-to-bench_chase> [n]
set -u

BENCH="${1:?usage: $0 <bench_chase> [n]}"
N="${2:-200}"
WORK="$(mktemp -d)"
BENCH_PID=""
# Clean up the temp dir — and any still-running backgrounded bench — on
# every exit path, including Ctrl-C and a terminated CI job.
cleanup() {
  if [ -n "$BENCH_PID" ]; then
    kill -9 "$BENCH_PID" 2>/dev/null
    wait "$BENCH_PID" 2>/dev/null
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM HUP

run_final_line() {
  # Prints only the diffable `final: ...` line of a durable run.
  "$BENCH" --checkpoint-dir "$1" --durable-n "$N" |
    grep '^final:'
}

echo "== reference: uninterrupted run =="
REF_DIR="$WORK/ref"
REF_LINE="$(run_final_line "$REF_DIR")" || { echo "reference run failed"; exit 1; }
echo "$REF_LINE"

echo "== interrupted run: kill -9 mid-chase =="
KILL_DIR="$WORK/killed"
# Background the binary directly (not a compound command) so $! is the
# bench PID and the kill actually lands on it.
"$BENCH" --checkpoint-dir "$KILL_DIR" --durable-n "$N" \
  >"$WORK/killed.log" 2>&1 &
BENCH_PID=$!
# Wait until at least one snapshot generation exists, then kill hard.
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
echo "killed pid $KILLED_PID; generations on disk:"
ls "$KILL_DIR"

echo "== resume from disk =="
RESUME_OUT="$("$BENCH" --checkpoint-dir "$KILL_DIR" \
  --durable-n "$N")"
echo "$RESUME_OUT" | grep '^resume:'
RESUME_LINE="$(echo "$RESUME_OUT" | grep '^final:')"
echo "$RESUME_LINE"
if ! echo "$RESUME_OUT" | grep -q 'resumed=yes'; then
  echo "FAIL: resume did not pick up the on-disk checkpoint"; exit 1
fi
if [ "$RESUME_LINE" != "$REF_LINE" ]; then
  echo "FAIL: resumed final line differs from uninterrupted run"
  echo "  reference: $REF_LINE"
  echo "  resumed:   $RESUME_LINE"
  exit 1
fi

echo "== corruption fallback: bit-flip the newest snapshot =="
NEWEST="$(ls "$KILL_DIR"/chase-*.snap | sort -t- -k2 -n | tail -1)"
SIZE="$(stat -c%s "$NEWEST")"
printf '\xff' | dd of="$NEWEST" bs=1 seek=$((SIZE / 2)) conv=notrunc 2>/dev/null
CORRUPT_OUT="$("$BENCH" --checkpoint-dir "$KILL_DIR" \
  --durable-n "$N")"
echo "$CORRUPT_OUT" | grep '^resume:'
CORRUPT_LINE="$(echo "$CORRUPT_OUT" | grep '^final:')"
if ! echo "$CORRUPT_OUT" | grep '^resume:' | grep -q 'skipped=[1-9]'; then
  echo "FAIL: corrupted snapshot was not skipped"; exit 1
fi
if [ "$CORRUPT_LINE" != "$REF_LINE" ]; then
  echo "FAIL: fallback final line differs from uninterrupted run"
  echo "  reference: $REF_LINE"
  echo "  fallback:  $CORRUPT_LINE"
  exit 1
fi

echo "== golden checkpoint: fixed n=64 run vs recorded snapshot =="
GOLDEN_DIR="$(cd "$(dirname "$0")/.." && pwd)/tests/golden"
GOLDEN_FINAL="$GOLDEN_DIR/durable_chase_n64.final"
GOLDEN_SNAP="$GOLDEN_DIR/durable_chase_n64.snap"
if [ -f "$GOLDEN_FINAL" ] && [ -f "$GOLDEN_SNAP" ]; then
  GOLD_RUN="$WORK/golden"
  GOLD_LINE="$("$BENCH" --checkpoint-dir "$GOLD_RUN" \
    --durable-n 64 | grep '^final:')"
  EXPECT_LINE="$(cat "$GOLDEN_FINAL")"
  if [ "$GOLD_LINE" != "$EXPECT_LINE" ]; then
    echo "FAIL: final line drifted from the recorded golden"
    echo "  golden:  $EXPECT_LINE"
    echo "  current: $GOLD_LINE"
    exit 1
  fi
  GOLD_NEWEST="$(ls "$GOLD_RUN"/chase-*.snap | sort -t- -k2 -n | tail -1)"
  if ! cmp -s "$GOLD_NEWEST" "$GOLDEN_SNAP"; then
    echo "FAIL: newest snapshot bytes differ from the recorded golden"
    echo "  golden:  $GOLDEN_SNAP"
    echo "  current: $GOLD_NEWEST"
    exit 1
  fi
  echo "golden checkpoint matches: $GOLD_LINE"
else
  echo "SKIP: no golden checkpoint recorded under tests/golden/"
fi

echo "PASS: kill -9 resume and corruption fallback both match: $REF_LINE"
