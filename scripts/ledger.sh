#!/usr/bin/env bash
# The query-cost ledger: runs every figure, ablation and sky-band bench
# (every bench binary but the micro_* google-benchmark suites) at 2%
# scale and writes their CSVs into OUT_DIR. The CSVs hold only
# deterministic columns (query costs, skyline sizes), byte-identical
# across HDSKY_THREADS values and build types, so bench/ledger/ pins
# every paper figure's query cost:
#
#   scripts/ledger.sh bench/ledger                  # regenerate the ledger
#   scripts/ledger.sh bench_out && diff -r --exclude=README.md \
#     bench_out bench/ledger                        # check it (CI)
#
# Environment knobs:
#   BUILD_DIR  build tree holding bench/ binaries (default: ./build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
OUT_DIR="${1:?usage: scripts/ledger.sh OUT_DIR}"

mkdir -p "$OUT_DIR"
ran=0
for b in "$BUILD_DIR"/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  case "$(basename "$b")" in micro_*) continue ;; esac
  if ! log="$(HDSKY_SCALE=0.02 HDSKY_CSV_DIR="$OUT_DIR" "$b" 2>&1)"; then
    echo "$log" >&2
    echo "error: $b failed" >&2
    exit 1
  fi
  ran=$((ran + 1))
done
if [ "$ran" -eq 0 ]; then
  echo "error: no figure benches under $BUILD_DIR/bench; build first" >&2
  exit 1
fi
echo "wrote $ran ledger CSVs to $OUT_DIR"
