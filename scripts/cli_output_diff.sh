#!/bin/sh
# Byte-for-byte comparison of the command-line tools of two builds: runs
# one matrix of hdsky_discover sessions (with hdsky_serve and hdsky_pack
# where a session needs them) against each build's own binaries and diffs
# everything they print or write. Use it to check that a refactor of the
# tools or of src/session changed no output.
#
# Usage: cli_output_diff.sh <old-bin-dir> <new-bin-dir>
#   e.g. cli_output_diff.sh ../parent/build/tools build/tools
#
# Compared per run: exit code, stdout, stderr, --out and --trace CSVs, --federation-json, packed .hdb files,
# and journal directories (minus SESSION, a random id). Exits 1 when
# anything differs.
set -u

OLD=$(cd "$1" && pwd) || exit 1
NEW=$(cd "$2" && pwd) || exit 1
WORK=$(mktemp -d "${TMPDIR:-/tmp}/hdsky_clidiff.XXXXXX") || exit 1
PIDS=""

cleanup() {
  for p in $PIDS; do kill "$p" 2>/dev/null; done
  wait 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# Both builds serve on the same ports: a federated journal's STATE records
# its endpoints.
BASE_PORT=$((20000 + $$ % 20000))

# serve <bin-dir> <out-prefix> <port-offset> <args...>: starts hdsky_serve
# on BASE_PORT + offset and sets PORT.
serve() {
  bin=$1
  pre=$2
  PORT=$((BASE_PORT + $3))
  shift 3
  "$bin/hdsky_serve" --port "$PORT" "$@" >"$pre.out" 2>"$pre.err" &
  PIDS="$PIDS $!"
  i=0
  while ! grep -q "listening on" "$pre.out" 2>/dev/null; do
    i=$((i + 1))
    [ $i -lt 100 ] || fail "server did not start: $(cat "$pre.err")"
    sleep 0.1
  done
}

stop_servers() {
  for p in $PIDS; do kill "$p" 2>/dev/null; done
  wait 2>/dev/null
  PIDS=""
}

# run_matrix <bin-dir> <dir>: every session of the matrix, run inside dir
# so the paths the tools print are the same for both builds.
run_matrix() {
  bin=$1
  mkdir -p "$2"
  cd "$2" || exit 1
  d=.
  D="$bin/hdsky_discover"
  # SQ-DB-SKY is exponential in the dimension count, so the wider
  # bluenile schema runs the RQ-capable algorithms only.
  for run in route:auto route:sq route:rq route:pq route:mq route:baseline \
      bluenile:auto bluenile:rq bluenile:baseline; do
    demo=${run%%:*}
    a=${run#*:}
    "$D" --demo "$demo" --n 3000 --seed 7 --algorithm "$a" \
      --out "$d/${demo}_$a.csv" --trace "$d/${demo}_$a.trace" \
      >"$d/${demo}_$a.out" 2>"$d/${demo}_$a.err"
    echo "exit $?" >>"$d/${demo}_$a.out"
  done
  for demo in route bluenile; do
    "$D" --demo $demo --n 3000 --band 2 --out "$d/${demo}_band.csv" \
      >"$d/${demo}_band.out" 2>"$d/${demo}_band.err"
    echo "exit $?" >>"$d/${demo}_band.out"
  done
  for t in 1 4; do
    "$D" --demo bluenile --n 2000 --algorithm rq --trials 4 --threads "$t" \
      >"$d/trials_$t.out" 2>"$d/trials_$t.err"
    echo "exit $?" >>"$d/trials_$t.out"
  done
  "$D" --demo route --n 2000 --algorithm sq --journal "$d/j_local" \
    --checkpoint-every 5 --out "$d/j_local.csv" >"$d/j_local.out" \
    2>"$d/j_local.err"
  echo "exit $?" >>"$d/j_local.out"
  "$D" --demo route --n 2000 --algorithm sq --journal "$d/j_local" \
    --checkpoint-every 5 --out "$d/j_local2.csv" >"$d/j_local2.out" \
    2>"$d/j_local2.err"
  echo "exit $?" >>"$d/j_local2.out"

  "$bin/hdsky_pack" --demo bluenile --n 5000 --out "$d/bn.hdb" \
    >"$d/pack.out" 2>"$d/pack.err"
  "$D" --dataset-file "$d/bn.hdb" --read-path pread \
    --buffer-pool-bytes 65536 --algorithm rq --out "$d/paged.csv" \
    >"$d/paged.out" 2>"$d/paged.err"
  echo "exit $?" >>"$d/paged.out"

  serve "$bin" "$d/serve" 0 --demo bluenile --n 3000 --seed 7 --k 10
  for mode in plain journal cache; do
    case $mode in
      plain) extra="" ;;
      journal) extra="--journal $d/j_remote" ;;
      cache) extra="--cache" ;;
    esac
    # shellcheck disable=SC2086
    "$D" --connect "127.0.0.1:$PORT" --algorithm rq $extra \
      --out "$d/remote_$mode.csv" >"$d/remote_$mode.out" \
      2>"$d/remote_$mode.err"
    echo "exit $?" >>"$d/remote_$mode.out"
  done
  stop_servers

  ports=""
  for s in 1 2 3; do
    serve "$bin" "$d/fed_serve$s" "$s" --demo bluenile --n 1500 --seed "$s" --k 10
    ports="$ports${ports:+,}127.0.0.1:$PORT"
  done
  "$D" --connect "$ports" --federate union --algorithm rq \
    --journal "$d/j_fed" --federation-json "$d/fed.json" \
    --out "$d/fed.csv" >"$d/fed.out" 2>"$d/fed.err"
  echo "exit $?" >>"$d/fed.out"
  stop_servers
  find "$d" -name SESSION -delete
}

run_matrix "$OLD" "$WORK/old"
run_matrix "$NEW" "$WORK/new"
diff -r "$WORK/old" "$WORK/new" || fail "outputs differ"
# Some algorithms do not apply to some schemas (RQ on route); those runs
# fail identically in both builds.
echo "runs that failed in both builds:" \
  $(grep -l "^exit [1-9]" "$WORK"/new/*.out | xargs -n1 basename)
echo "cli outputs identical ($(ls "$WORK/new" | wc -l) files and dirs)"
