#!/usr/bin/env bash
# SIGKILL durability smoke for daemon-owned checkpoints: stream half the
# batches into a pghived running with --checkpoint-dir --checkpoint-every 1,
# SIGKILL it mid-stream (no drain, so no final checkpoint: only the scheduled
# .pghd, the graph journal and the feed segment survive), restart it over the
# same directory, and resume the restored session with --session s1. The
# resumed schema and the full changefeed served over the wire must be
# byte-identical to the one-shot run. Registered as ctest
# cli_sigkill_checkpoint_smoke, so it runs in every CI job that runs the suite.
#
# Usage: sigkill_checkpoint_smoke.sh <pghive> <pghived> <workdir>
set -eu

PGHIVE=$1
PGHIVED=$2
WORK=$3

mkdir -p "$WORK"
cd "$WORK"
rm -rf kill.port ckpt
mkdir -p ckpt

cleanup() {
  [ -n "${daemon:-}" ] && kill -9 "$daemon" 2>/dev/null || true
}
trap cleanup EXIT

wait_for_file() {
  for _ in $(seq 1 100); do
    [ -s "$1" ] && return 0
    sleep 0.1
  done
  echo "pghived did not write $1" >&2
  cat pghived.log >&2 || true
  return 1
}

"$PGHIVE" generate --dataset POLE --scale 0.05 --seed 7 --out smoke.pg \
  > /dev/null
"$PGHIVE" discover --graph smoke.pg --batches 6 --out oneshot \
  --changefeed oneshot.feed > /dev/null

"$PGHIVED" --port 0 --port-file kill.port --checkpoint-dir ckpt \
  --checkpoint-every 1 > pghived.log 2>&1 &
daemon=$!
wait_for_file kill.port
"$PGHIVE" client --graph smoke.pg --port-file kill.port --batches 6 \
  --stop-after 3

# Ingest commits asynchronously, so the kill lands anywhere after the first
# scheduled checkpoint: the journal and feed may run ahead of the .pghd.
wait_for_file ckpt/s1.pghd
kill -KILL "$daemon"
wait "$daemon" || true
daemon=
rm -f kill.port

"$PGHIVED" --port 0 --port-file kill.port --checkpoint-dir ckpt \
  --checkpoint-every 1 > pghived.log 2>&1 &
daemon=$!
wait_for_file kill.port
"$PGHIVE" client --graph smoke.pg --port-file kill.port --batches 6 \
  --session s1 --out resumed --changefeed-out wire.feed > /dev/null

kill -TERM "$daemon"
wait "$daemon"
daemon=

cmp oneshot.pgs resumed.pgs
cmp oneshot.xsd resumed.xsd
cmp oneshot.feed wire.feed
echo "sigkill resume from checkpoint dir is byte-identical to the one-shot run"
