#!/usr/bin/env bash
# Bounded soak smoke for CI: a short mixed-traffic soak with sane SLO
# gates must pass, and a run with an absurd p99 gate must exit non-zero
# (proving the gates actually fail the build, not just print). The
# synthetic generator alternates JSON and binary framing per record, so
# one run covers both wire formats. Total budget: ~20 s of soak.
set -euo pipefail

POPS=${POPS:-./target/release/pops}
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

"$POPS" serve --d 4 --g 4 --port 0 > "$WORKDIR/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening on" "$WORKDIR/serve.log" && break
  sleep 0.1
done
ADDR=$(grep -oE '127\.0\.0\.1:[0-9]+' "$WORKDIR/serve.log" | head -1)
echo "soak target at $ADDR"

# A 15 s mixed soak — singles, faulted routes, mixed-shape batches,
# cache ops, both wire formats — with generous-but-real gates. --soak
# already demands zero verification failures and zero hard failures.
"$POPS" replay --addr "$ADDR" --synth mixed:4x4,2x8 --count 64 \
  --soak --duration 15 --clients 4 --rate-multiplier 8 \
  --slo-p99-ms 2000 --slo-shed-pct 50 | tee "$WORKDIR/soak.out"
grep -q "SLO gates: pass" "$WORKDIR/soak.out"
grep -q "verify-failures 0" "$WORKDIR/soak.out"

# The negative leg: an unmeetable p99 gate must breach and exit
# non-zero, and the failure must name the gate.
if "$POPS" replay --addr "$ADDR" --synth mixed:4x4 --count 16 \
    --duration 2 --loop --slo-p99-ms 0.0001 > "$WORKDIR/breach.out" \
    2> "$WORKDIR/breach.err"; then
  echo "an unmeetable SLO gate did not fail the run" >&2
  exit 1
fi
grep -q "SLO gates breached" "$WORKDIR/breach.err"
grep -q "p99" "$WORKDIR/breach.err"

"$POPS" request --addr "$ADDR" --shutdown
wait "$SERVE_PID"

# Record -> replay: a separate recording server captures one pass of the
# synthetic mixed trace; replaying that recording against the same server
# must be just as clean and cover the same ops.
"$POPS" serve --d 4 --g 4 --port 0 --record "$WORKDIR/recorded.jsonl" \
  > "$WORKDIR/record-serve.log" &
RECORD_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening on" "$WORKDIR/record-serve.log" && break
  sleep 0.1
done
RECORD_ADDR=$(grep -oE '127\.0\.0\.1:[0-9]+' "$WORKDIR/record-serve.log" | head -1)
"$POPS" replay --addr "$RECORD_ADDR" --synth mixed:4x4,2x8 --count 64 --clients 1 \
  | tee "$WORKDIR/synth.out"
"$POPS" replay --addr "$RECORD_ADDR" --trace "$WORKDIR/recorded.jsonl" --clients 1 \
  | tee "$WORKDIR/replayed.out"
for out in synth replayed; do
  grep -q "failures 0  verify-failures 0" "$WORKDIR/$out.out"
done
if ! diff <(grep "per-op" "$WORKDIR/synth.out") <(grep "per-op" "$WORKDIR/replayed.out"); then
  echo "the recorded trace replayed different ops than were recorded" >&2
  exit 1
fi
"$POPS" request --addr "$RECORD_ADDR" --shutdown
wait "$RECORD_PID"
echo "soak smoke OK"
