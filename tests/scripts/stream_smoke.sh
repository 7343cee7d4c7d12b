#!/usr/bin/env bash
# End-to-end daemon smoke on the real binaries over real TCP: start pghived,
# stream a zoo dataset through `pghive client`, and require the wire-borne
# schema to be byte-identical to a local `pghive discover` with the same
# batch count — the service's core determinism promise. The streamed schema
# must also pass strict validation of its source graph, and a SIGTERM must
# drain the daemon and exit 0.
#
# Usage: stream_smoke.sh <pghive> <pghived> <workdir>
set -eu

PGHIVE=$1
PGHIVED=$2
WORK=$3

mkdir -p "$WORK"
cd "$WORK"
rm -f pghived.port

cleanup() {
  [ -n "${daemon:-}" ] && kill -9 "$daemon" 2>/dev/null || true
}
trap cleanup EXIT

"$PGHIVE" generate --dataset POLE --scale 0.05 --seed 7 --out smoke.pg \
  > /dev/null
"$PGHIVE" discover --graph smoke.pg --batches 3 --out oneshot > /dev/null

"$PGHIVED" --port 0 --port-file pghived.port > pghived.log 2>&1 &
daemon=$!
for _ in $(seq 1 100); do
  [ -s pghived.port ] && break
  sleep 0.1
done
[ -s pghived.port ] || { cat pghived.log >&2; exit 1; }
"$PGHIVE" client --graph smoke.pg --port-file pghived.port --batches 3 \
  --out streamed > /dev/null

cmp oneshot.pgs streamed.pgs
cmp oneshot.xsd streamed.xsd
"$PGHIVE" validate --graph smoke.pg --schema streamed.pgs --strict

# Graceful shutdown must drain and exit 0.
kill -TERM "$daemon"
wait "$daemon"
daemon=
echo "streamed schema is byte-identical to the one-shot run"
