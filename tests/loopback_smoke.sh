#!/bin/sh
# Loopback smoke test: start hdsky_serve on an ephemeral port, run
# hdsky_discover --connect against it, and demand the *identical* skyline
# CSV and external-query count as the same discovery run in-process.
#
# SQ-DB-SKY runs against the route demo (single-predicate attributes);
# RQ-DB-SKY needs two-ended ranges, so it runs against the bluenile demo.
#
# Usage: loopback_smoke.sh <hdsky_serve> <hdsky_discover>
set -u

SERVE=$1
DISCOVER=$2
WORK=$(mktemp -d "${TMPDIR:-/tmp}/hdsky_smoke.XXXXXX") || exit 1
SERVE_PID=""

stop_server() {
  if [ -n "$SERVE_PID" ]; then
    kill -TERM "$SERVE_PID" 2>/dev/null
    wait "$SERVE_PID" 2>/dev/null
    SERVE_PID=""
  fi
}

cleanup() {
  stop_server
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# start_server <demo> <n> <k>: launches hdsky_serve on an ephemeral port
# and sets PORT once the "listening on ADDR:PORT" line appears.
start_server() {
  demo=$1
  n=$2
  k=$3
  : >"$WORK/serve.out"
  "$SERVE" --demo "$demo" --n "$n" --k "$k" --seed 7 --port 0 \
    >"$WORK/serve.out" 2>"$WORK/serve.err" &
  SERVE_PID=$!
  i=0
  while [ $i -lt 100 ]; do
    if grep -q "listening on" "$WORK/serve.out" 2>/dev/null; then
      break
    fi
    kill -0 "$SERVE_PID" 2>/dev/null \
      || fail "server exited early: $(cat "$WORK/serve.err")"
    i=$((i + 1))
    sleep 0.1
  done
  PORT=$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$WORK/serve.out")
  [ -n "$PORT" ] || fail "could not parse port from: $(cat "$WORK/serve.out")"
}

# run_algo <algo> <demo> <n> <k>: remote vs in-process run, identical
# skyline CSV and found/queries summary required. Assumes the matching
# server is already up on $PORT.
run_algo() {
  algo=$1
  demo=$2
  n=$3
  k=$4
  "$DISCOVER" --connect "127.0.0.1:$PORT" --algorithm "$algo" \
    --out "$WORK/remote_$algo.csv" >"$WORK/remote_$algo.txt" \
    2>"$WORK/remote_$algo.err" \
    || fail "$algo: remote discovery failed: $(cat "$WORK/remote_$algo.err")"
  "$DISCOVER" --demo "$demo" --n "$n" --k "$k" --seed 7 --algorithm "$algo" \
    --out "$WORK/local_$algo.csv" >"$WORK/local_$algo.txt" 2>/dev/null \
    || fail "$algo: local discovery failed"

  # The skyline CSVs must be byte-identical.
  diff -q "$WORK/remote_$algo.csv" "$WORK/local_$algo.csv" >/dev/null \
    || fail "$algo: remote and local skyline CSVs differ"
  # And so must the found/queries summary (external-query count).
  remote_summary=$(grep -E '^(found|queries)' "$WORK/remote_$algo.txt")
  local_summary=$(grep -E '^(found|queries)' "$WORK/local_$algo.txt")
  [ -n "$remote_summary" ] || fail "$algo: no summary in remote output"
  [ "$remote_summary" = "$local_summary" ] \
    || fail "$algo: summary mismatch:
remote: $remote_summary
local : $local_summary"
  echo "$algo: skyline and query count identical over loopback"
}

start_server route 2000 10
run_algo sq route 2000 10
stop_server

start_server bluenile 500 10
run_algo rq bluenile 500 10

# The cache stack must not change the discovered skyline.
"$DISCOVER" --connect "127.0.0.1:$PORT" --algorithm rq --cache \
  --out "$WORK/cached.csv" >/dev/null 2>&1 \
  || fail "cached remote discovery failed"
diff -q "$WORK/cached.csv" "$WORK/local_rq.csv" >/dev/null \
  || fail "cached skyline differs"
echo "cache stack: skyline identical"

stop_server

# The shutdown summary is parsed by perfbench/parsers.py: exactly one
# served line carrying the busy and shed fields, and one backend line.
N='[0-9][0-9]*'
served_re="^served  : $N queries ($N replayed, $N budget rejections, $N busy)"
served_re="$served_re over $N connections ($N rejected, $N shed)\$"
backend_re="^backend : $N queries issued, $N tuples returned\$"
served=$(grep -c "$served_re" "$WORK/serve.err")
[ "$served" -eq 1 ] \
  || fail "want one served line with busy/shed, got $served:
$(cat "$WORK/serve.err")"
backend=$(grep -c "$backend_re" "$WORK/serve.err")
[ "$backend" -eq 1 ] \
  || fail "want one backend line, got $backend: $(cat "$WORK/serve.err")"
echo "server summary: served and backend lines present"

echo "loopback smoke passed"
