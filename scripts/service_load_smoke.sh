#!/usr/bin/env bash
# Service load smoke: drives the event-driven server with thousands of
# concurrent pipelined sessions (tools/hdsky_loadgen, in-process backend),
# writes the google-benchmark-shaped BENCH_service.json artifact, and
# gates it with scripts/compare_bench.py service mode:
#
#   * the run must complete (all sessions answered, none failed), and
#   * p99 latency must stay within tolerance of the pinned baseline
#     bench/baselines/BENCH_service.json.
#
# A second case packs the Blue Nile data (tools/hdsky_pack), serves it
# through a 64 KiB pread buffer pool on two loops (tools/hdsky_serve),
# so nearly every answer misses, preads and decodes a page on its loop
# thread, and drives it with hdsky_loadgen --connect: that run too must
# complete with no failed session.
#
# Environment knobs:
#   BUILD_DIR       build tree holding tools/hdsky_loadgen (default: ./build)
#   HDSKY_SCALE     session/query scale multiplier (default: 0.25 — CI
#                   smoke; 1 reproduces the full 1000-session acceptance run)
#   HDSKY_BENCH_OUT output directory for BENCH_service.json (default: repo
#                   root)
#   LOADGEN_FLAGS   extra flags passed through to hdsky_loadgen
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
OUT_DIR="${HDSKY_BENCH_OUT:-$ROOT}"
SCALE="${HDSKY_SCALE:-0.25}"
BIN="$BUILD_DIR/tools/hdsky_loadgen"
PACK="$BUILD_DIR/tools/hdsky_pack"
SERVE="$BUILD_DIR/tools/hdsky_serve"

for tool in "$BIN" "$PACK" "$SERVE"; do
  if [ ! -x "$tool" ]; then
    echo "error: $tool not found." >&2
    echo "Build first:  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build --target hdsky_loadgen hdsky_pack hdsky_serve" >&2
    exit 1
  fi
done

OUT="$OUT_DIR/BENCH_service.json"
echo "== hdsky_loadgen (HDSKY_SCALE=$SCALE) =="
HDSKY_SCALE="$SCALE" "$BIN" --json "$OUT" ${LOADGEN_FLAGS:-}
echo "wrote $OUT"

echo "== service perf gate =="
python3 "$ROOT/scripts/compare_bench.py" "$OUT" \
  --baseline "$ROOT/bench/baselines/BENCH_service.json"

echo "== hdsky_loadgen --connect to a packed file, 64 KiB pool (HDSKY_SCALE=$SCALE) =="
WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  if [ -n "$SERVE_PID" ]; then kill "$SERVE_PID" 2>/dev/null || true; fi
  rm -rf "$WORK"
}
trap cleanup EXIT
"$PACK" --demo bluenile --n 209666 --out "$WORK/bluenile.hdb" > /dev/null
"$SERVE" --dataset-file "$WORK/bluenile.hdb" --read-path pread \
  --buffer-pool-bytes 65536 --loops 2 --port 0 \
  > "$WORK/serve.out" 2> "$WORK/serve.err" &
SERVE_PID=$!
for _ in $(seq 1 300); do
  grep -q '^listening on ' "$WORK/serve.out" && break
  sleep 0.1
done
PORT="$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$WORK/serve.out")"
if [ -z "$PORT" ]; then
  cat "$WORK/serve.err" >&2
  echo "error: hdsky_serve did not start" >&2
  exit 1
fi
# hdsky_loadgen exits non-zero unless every session completed.
HDSKY_SCALE="$SCALE" "$BIN" --connect "127.0.0.1:$PORT" --sessions 800 \
  --queries 64
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
cat "$WORK/serve.err"
