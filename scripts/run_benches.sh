#!/usr/bin/env bash
# Runs every micro_* benchmark built in $BUILD_DIR/bench and writes one
# machine-readable perf artifact per binary at the repo root
# (google-benchmark JSON: real_time/cpu_time per bench plus counters
# such as items_per_second, queries_per_sec, p99_us, prune_ratio):
#
#   micro_substrate       -> BENCH_substrate.json
#   micro_discovery       -> BENCH_discovery.json
#   micro_service_load    -> BENCH_service.json
#   micro_<anything else> -> BENCH_<anything else>.json
#
# Benchmarks that are not built are skipped, so a tree configured for a
# subset (e.g. CI's perf-smoke builds only substrate + discovery) still
# works unchanged.
#
# Environment knobs:
#   BUILD_DIR          build tree holding bench/ binaries (default: ./build)
#   HDSKY_BENCH_REPS   --benchmark_repetitions (default: 3; medians are
#                      reported, which resists scheduler noise)
#   HDSKY_BENCH_FILTER optional --benchmark_filter regex
#   HDSKY_BENCH_OUT    output directory (default: repo root)
#   HDSKY_SCALE        dataset scale multiplier, honored by the benches
#                      themselves (e.g. 0.02 for a CI smoke run)
#   HDSKY_BENCH_INTERLEAVE
#                      1 = run repetitions in random interleaved order
#                      (--benchmark_enable_random_interleaving), so a
#                      stretch of host load lands on the repetitions of
#                      several benchmarks instead of on every repetition
#                      of one (default: 0). It steadies the out-of-core
#                      cold ratios; the ~150 ns in-memory query benches
#                      read noisier under it.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
REPS="${HDSKY_BENCH_REPS:-3}"
INTERLEAVE=false
if [ "${HDSKY_BENCH_INTERLEAVE:-0}" = 1 ]; then INTERLEAVE=true; fi
FILTER="${HDSKY_BENCH_FILTER:-}"
OUT_DIR="${HDSKY_BENCH_OUT:-$ROOT}"

if [ ! -x "$BUILD_DIR/bench/micro_substrate" ]; then
  echo "error: $BUILD_DIR/bench/micro_substrate not found." >&2
  echo "Build first:  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j" >&2
  exit 1
fi

# Refuse non-Release build trees: a debug tree records
# "library_build_type": "debug" in every BENCH_*.json and silently
# poisons any baseline pinned from it. HDSKY_ALLOW_DEBUG_BENCH=1
# overrides for local experiments, with a loud tag on stderr.
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt" 2>/dev/null || true)"
case "$BUILD_TYPE" in
  Release|RelWithDebInfo|MinSizeRel) ;;
  *)
    if [ "${HDSKY_ALLOW_DEBUG_BENCH:-0}" = "1" ]; then
      echo "WARNING: benching a '${BUILD_TYPE:-unset}' build tree" \
           "(HDSKY_ALLOW_DEBUG_BENCH=1); do NOT pin baselines from" \
           "these numbers" >&2
    else
      echo "error: $BUILD_DIR is configured as" \
           "'${BUILD_TYPE:-unset}', not Release; its numbers would" \
           "poison perf baselines." >&2
      echo "Reconfigure with -DCMAKE_BUILD_TYPE=Release, or set" \
           "HDSKY_ALLOW_DEBUG_BENCH=1 to run anyway." >&2
      exit 1
    fi
    ;;
esac

run_bench() {
  local bin="$1" out="$2"
  "$BUILD_DIR/bench/$bin" \
    ${FILTER:+--benchmark_filter="$FILTER"} \
    --benchmark_repetitions="$REPS" \
    --benchmark_enable_random_interleaving="$INTERLEAVE" \
    --benchmark_report_aggregates_only=true \
    --benchmark_out_format=json \
    --benchmark_out="$out"
  echo "wrote $out"
}

# Generic discovery: every built micro_* binary produces BENCH_*.json.
# micro_service_load keeps the historical artifact name BENCH_service.json
# (the name the service perf gate and its pinned baseline use).
ran=0
for bin in "$BUILD_DIR"/bench/micro_*; do
  [ -x "$bin" ] && [ -f "$bin" ] || continue
  name="$(basename "$bin")"
  suffix="${name#micro_}"
  case "$suffix" in
    service_load) suffix=service ;;
  esac
  run_bench "$name" "$OUT_DIR/BENCH_${suffix}.json"
  ran=$((ran + 1))
done

if [ "$ran" -eq 0 ]; then
  echo "error: no micro_* benchmarks found in $BUILD_DIR/bench" >&2
  exit 1
fi
