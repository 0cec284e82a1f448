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

if [ ! -x "$BIN" ]; then
  echo "error: $BIN not found." >&2
  echo "Build first:  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build --target hdsky_loadgen" >&2
  exit 1
fi

OUT="$OUT_DIR/BENCH_service.json"
echo "== hdsky_loadgen (HDSKY_SCALE=$SCALE) =="
HDSKY_SCALE="$SCALE" "$BIN" --json "$OUT" ${LOADGEN_FLAGS:-}
echo "wrote $OUT"

echo "== service perf gate =="
python3 "$ROOT/scripts/compare_bench.py" "$OUT" \
  --baseline "$ROOT/bench/baselines/BENCH_service.json"
