#!/bin/sh
# Federation loopback smoke: three hdsky_serve backends (one behind a
# fault-injecting hdsky_proxy), one federated union discovery.
#
# Demands:
#  * the federated union skyline equals the merged single-site ground
#    truth exactly (at ranking-value granularity — the only granularity
#    a top-k interface can reveal),
#  * the federated run pays strictly fewer backend queries than the
#    three sequential discoveries it replaces, with a non-zero number
#    answered free from the shared dominance index,
#  * scripts/compare_bench.py accepts the run's --federation-json,
#  * killing one backend mid-run degrades gracefully: the remaining
#    backends finish, the exit code stays 0, and the output is flagged
#    "coverage: PARTIAL",
#  * chaos, coordinator: kill -KILL the coordinator at a round barrier
#    mid-run; the resumed session produces byte-identical CSV and JSON
#    and the backends are charged exactly as many queries as one
#    uninterrupted run — zero replays on the wire, and
#  * chaos, backend: a deterministic proxy blackout kills a backend
#    mid-run and revives it; re-probing reintegrates it (PARTIAL never
#    reported, "recovered" in the report), the skyline equals the
#    no-fault ground truth, and each survivor paid exactly its solo
#    traversal cost — no duplicate queries on healthy backends.
#
# Usage: federation_smoke.sh <hdsky_serve> <hdsky_discover> <hdsky_proxy>
#                            <compare_bench.py>
set -u

SERVE=$1
DISCOVER=$2
PROXY=$3
COMPARE=$4
WORK=$(mktemp -d "${TMPDIR:-/tmp}/hdsky_fed.XXXXXX") || exit 1
PIDS=""

cleanup() {
  for pid in $PIDS; do
    kill -TERM "$pid" 2>/dev/null
  done
  for pid in $PIDS; do
    wait "$pid" 2>/dev/null
  done
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# wait_listen <out-file> <pid>: blocks until the "listening on" line
# appears, then prints the port.
wait_listen() {
  out=$1
  pid=$2
  i=0
  while [ $i -lt 100 ]; do
    if grep -q "listening on" "$out" 2>/dev/null; then
      sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$out"
      return 0
    fi
    kill -0 "$pid" 2>/dev/null || return 1
    i=$((i + 1))
    sleep 0.1
  done
  return 1
}

# start_serve <name> <n> <seed>: bluenile backend on an ephemeral port;
# sets PORT.
start_serve() {
  name=$1
  n=$2
  seed=$3
  "$SERVE" --demo bluenile --n "$n" --k 10 --seed "$seed" --port 0 \
    >"$WORK/$name.out" 2>"$WORK/$name.err" &
  pid=$!
  PIDS="$PIDS $pid"
  eval "${name}_PID=$pid"
  PORT=$(wait_listen "$WORK/$name.out" "$pid") \
    || fail "$name did not come up: $(cat "$WORK/$name.err")"
}

N=2000

start_serve s1 $N 1
P1=$PORT
start_serve s2 $N 2
P2=$PORT
start_serve s3 $N 3
P3=$PORT

# Backend 3 sits behind an adversarial proxy: spurious BUSY bounces and
# small delays, all recoverable by the client's retry machinery.
"$PROXY" --upstream "127.0.0.1:$P3" --port 0 --seed 11 \
  --rate-limit 0.05 --delay 0.02 --delay-ms 5 \
  >"$WORK/proxy.out" 2>"$WORK/proxy.err" &
PROXY_PID=$!
PIDS="$PIDS $PROXY_PID"
PP=$(wait_listen "$WORK/proxy.out" "$PROXY_PID") \
  || fail "proxy did not come up: $(cat "$WORK/proxy.err")"

# --- Ground truth: dump each site's table, merge, discover locally. ----
for s in 1 2 3; do
  "$DISCOVER" --demo bluenile --n $N --seed $s \
    --dump-data "$WORK/site$s.csv" >/dev/null 2>&1 \
    || fail "dump-data failed for seed $s"
done
head -1 "$WORK/site1.csv" >"$WORK/merged.csv"
for s in 1 2 3; do
  tail -n +2 "$WORK/site$s.csv" >>"$WORK/merged.csv"
done
"$DISCOVER" --data "$WORK/merged.csv" --algorithm rq \
  --out "$WORK/truth.csv" >/dev/null 2>&1 \
  || fail "ground-truth discovery over merged CSV failed"

# --- Sequential baseline: three independent remote discoveries. -------
# Per-site costs are kept: the chaos jobs below assert a survivor of a
# backend outage pays exactly its solo traversal cost, nothing twice.
SEQ=0
site=0
for ep in "127.0.0.1:$P1" "127.0.0.1:$P2" "127.0.0.1:$PP"; do
  site=$((site + 1))
  "$DISCOVER" --connect "$ep" --algorithm rq >"$WORK/seq.txt" 2>/dev/null \
    || fail "sequential discovery against $ep failed"
  q=$(sed -n 's/^queries : \([0-9][0-9]*\).*/\1/p' "$WORK/seq.txt")
  [ -n "$q" ] || fail "no query count in sequential output for $ep"
  eval "S$site=$q"
  SEQ=$((SEQ + q))
done

# --- Federated union over all three (one behind the proxy). -----------
"$DISCOVER" --connect "127.0.0.1:$P1,127.0.0.1:$P2,127.0.0.1:$PP" \
  --federate union --algorithm rq --round-budget 24 \
  --out "$WORK/fed.csv" --federation-json "$WORK/fed.json" \
  >"$WORK/fed.txt" 2>"$WORK/fed.err" \
  || fail "federated discovery failed: $(cat "$WORK/fed.err")"
grep -q "coverage: PARTIAL" "$WORK/fed.txt" \
  && fail "healthy federation reported partial coverage"

# Exactness at ranking-value granularity (first 5 bluenile columns are
# the ranked ones; representatives may differ in the filtering Shape).
rank_proj() {
  tail -n +2 "$1" | cut -d, -f1-5 | sort -u
}
rank_proj "$WORK/truth.csv" >"$WORK/truth.proj"
rank_proj "$WORK/fed.csv" >"$WORK/fed.proj"
diff -q "$WORK/truth.proj" "$WORK/fed.proj" >/dev/null \
  || fail "federated union skyline differs from merged ground truth"
GROUPS=$(wc -l <"$WORK/truth.proj")
echo "union   : $GROUPS skyline groups, identical to merged ground truth"

# Savings: strictly fewer paid queries than the sequential runs, with a
# non-zero pruned count.
PAID=$(sed -n 's/^queries : \([0-9][0-9]*\) paid.*/\1/p' "$WORK/fed.txt")
PRUNED=$(sed -n 's/^queries : [0-9]* paid, \([0-9][0-9]*\) answered.*/\1/p' \
  "$WORK/fed.txt")
[ -n "$PAID" ] && [ -n "$PRUNED" ] \
  || fail "could not parse federation summary: $(cat "$WORK/fed.txt")"
[ "$PAID" -lt "$SEQ" ] \
  || fail "federation paid $PAID queries, sequential only $SEQ"
[ "$PRUNED" -gt 0 ] || fail "no queries pruned by the shared index"
echo "queries : federated $PAID vs sequential $SEQ ($PRUNED pruned)"

# The bench JSON must pass the federation perf gate.
python3 "$COMPARE" "$WORK/fed.json" \
  || fail "compare_bench.py rejected the federation JSON"

# --- Graceful degradation: kill one backend mid-run. ------------------
# The victim sits behind a proxy whose blackout never ends: from the
# victim's 100th query on, every connection dies as if the backend had.
# Its traversal needs thousands of queries, so it is cut mid-run by its
# own progress, however fast the server answers. The victim process is
# killed early too, right after the connections are up; landing before
# the blackout is fine — the next query fails and the backend is
# dropped the same way.
start_serve victim 20000 4
"$PROXY" --upstream "127.0.0.1:$PORT" --port 0 --seed 5 \
  --blackout-after 100 --blackout-queries 1000000000 \
  >"$WORK/proxy_victim.out" 2>"$WORK/proxy_victim.err" &
PROXYV_PID=$!
PIDS="$PIDS $PROXYV_PID"
PV=$(wait_listen "$WORK/proxy_victim.out" "$PROXYV_PID") \
  || fail "victim proxy did not come up: $(cat "$WORK/proxy_victim.err")"
"$DISCOVER" --connect "127.0.0.1:$P1,127.0.0.1:$P2,127.0.0.1:$PV" \
  --federate union --algorithm rq --round-budget 24 \
  >"$WORK/kill.txt" 2>"$WORK/kill.err" &
DISC_PID=$!
sleep 0.2
kill -KILL "$victim_PID" 2>/dev/null
wait "$DISC_PID"
code=$?
[ "$code" -eq 0 ] \
  || fail "federation exited $code after backend kill: $(cat "$WORK/kill.err")"
grep -q "coverage: PARTIAL" "$WORK/kill.txt" \
  || fail "no partial-coverage flag after backend kill"
grep -q "FAILED" "$WORK/kill.err" \
  || fail "no failed-backend report on stderr after kill"
# The survivors must have finished their full traversals.
n_complete=$(grep -c "complete$" "$WORK/kill.err")
[ "$n_complete" -eq 2 ] \
  || fail "expected 2 surviving complete backends, saw $n_complete"
echo "degrade : backend kill tolerated, survivors complete, flagged PARTIAL"

# --- Chaos, coordinator: kill -KILL at a round barrier, then resume. ---
# Dedicated servers so their served-query totals belong to this job
# alone: the crashed life plus the resumed life must charge the backends
# exactly what one uninterrupted run charges (the uninterrupted run went
# first against the same servers, so the final totals must be exactly
# twice its cost).
start_serve c1 $N 1
C1=$PORT
start_serve c2 $N 2
C2=$PORT
start_serve c3 $N 3
C3=$PORT
ENDPOINTS="127.0.0.1:$C1,127.0.0.1:$C2,127.0.0.1:$C3"

"$DISCOVER" --connect "$ENDPOINTS" --federate union --algorithm rq \
  --round-budget 24 --journal "$WORK/jref" \
  --out "$WORK/ref.csv" --federation-json "$WORK/ref.json" \
  >"$WORK/ref.txt" 2>"$WORK/ref.err" \
  || fail "journaled reference run failed: $(cat "$WORK/ref.err")"
rank_proj "$WORK/ref.csv" >"$WORK/ref.proj"
diff -q "$WORK/truth.proj" "$WORK/ref.proj" >/dev/null \
  || fail "journaled reference skyline differs from ground truth"
REF_PAID=0
for p in $(sed -n 's/^journal : .* \([0-9][0-9]*\) paid.*/\1/p' \
    "$WORK/ref.err"); do
  REF_PAID=$((REF_PAID + p))
done
[ "$REF_PAID" -gt 0 ] || fail "no journal paid counts in reference stderr"

"$DISCOVER" --connect "$ENDPOINTS" --federate union --algorithm rq \
  --round-budget 24 --journal "$WORK/jcrash" \
  --out "$WORK/res.csv" --federation-json "$WORK/res.json" \
  --crash-point federation.checkpoint.pre_state:8 \
  >"$WORK/crash.txt" 2>"$WORK/crash.err"
code=$?
[ "$code" -eq 137 ] \
  || fail "crash point exited $code, want 137 (SIGKILL)"
"$DISCOVER" --connect "$ENDPOINTS" --federate union --algorithm rq \
  --round-budget 24 --journal "$WORK/jcrash" \
  --out "$WORK/res.csv" --federation-json "$WORK/res.json" \
  >"$WORK/res.txt" 2>"$WORK/res.err" \
  || fail "resume after crash failed: $(cat "$WORK/res.err")"
grep -q "resuming federated session at round" "$WORK/res.err" \
  || fail "resumed run did not pick up the journaled round checkpoint"
diff -q "$WORK/ref.csv" "$WORK/res.csv" >/dev/null \
  || fail "resumed skyline CSV not byte-identical to uninterrupted run"
diff -q "$WORK/ref.json" "$WORK/res.json" >/dev/null \
  || fail "resumed federation JSON not byte-identical to uninterrupted run"

# Wire-level replay count: shut the dedicated servers down and total
# what they actually served across all three client lives.
for s in c1 c2 c3; do
  eval "pid=\$${s}_PID"
  kill -TERM "$pid" 2>/dev/null
  wait "$pid" 2>/dev/null
done
SERVED=0
for s in c1 c2 c3; do
  q=$(sed -n 's/^served  : \([0-9][0-9]*\) queries.*/\1/p' "$WORK/$s.err")
  [ -n "$q" ] || fail "no served-query count from $s"
  SERVED=$((SERVED + q))
done
[ "$SERVED" -eq $((2 * REF_PAID)) ] \
  || fail "servers saw $SERVED queries; crash+resume must charge exactly \
what the reference did ($REF_PAID), so $((2 * REF_PAID)) total"
echo "chaos   : kill -9 at round barrier resumed byte-identical, \
$REF_PAID charged queries, zero replayed on the wire"

# --- Chaos, backend: deterministic blackout + revive via the proxy. ----
# The proxy goes dark for client-query arrivals [220, 260): the first
# failed query degrades backend 3, the following probes fail into
# backoff, and the probe after the window reintegrates it. Arrivals are
# a query counter, not wall clock, so the schedule is exactly
# reproducible.
"$PROXY" --upstream "127.0.0.1:$P3" --port 0 --seed 7 \
  --blackout-after 220 --blackout-queries 40 \
  >"$WORK/proxy2.out" 2>"$WORK/proxy2.err" &
PROXY2_PID=$!
PIDS="$PIDS $PROXY2_PID"
PB=$(wait_listen "$WORK/proxy2.out" "$PROXY2_PID") \
  || fail "blackout proxy did not come up: $(cat "$WORK/proxy2.err")"

"$DISCOVER" --connect "127.0.0.1:$P1,127.0.0.1:$P2,127.0.0.1:$PB" \
  --federate union --algorithm rq --round-budget 24 \
  --probe-attempts 1000 --probe-backoff 1 \
  --out "$WORK/revive.csv" \
  >"$WORK/revive.txt" 2>"$WORK/revive.err" \
  || fail "federation with blackout failed: $(cat "$WORK/revive.err")"
grep -q "coverage: PARTIAL" "$WORK/revive.txt" \
  && fail "revived backend still reported as partial coverage"
grep -Eq "health healthy  recovered [1-9][0-9]*  complete" \
    "$WORK/revive.err" \
  || fail "no recovery in the backend report: $(cat "$WORK/revive.err")"
rank_proj "$WORK/revive.csv" >"$WORK/revive.proj"
diff -q "$WORK/truth.proj" "$WORK/revive.proj" >/dev/null \
  || fail "revived-backend skyline differs from the no-fault ground truth"

# Survivors must have paid exactly their solo traversal cost: an outage
# elsewhere is not allowed to charge a healthy backend twice.
site=0
for port in "$P1" "$P2"; do
  site=$((site + 1))
  pp=$(sed -n \
    "s/^backend : 127.0.0.1:$port  paid \([0-9]*\)  pruned \([0-9]*\).*/\1 \2/p" \
    "$WORK/revive.err")
  [ -n "$pp" ] || fail "no backend report for survivor 127.0.0.1:$port"
  paid=${pp% *}
  pruned=${pp#* }
  eval "solo=\$S$site"
  [ $((paid + pruned)) -eq "$solo" ] \
    || fail "survivor $site paid+pruned $((paid + pruned)), solo cost $solo"
done
echo "revive  : blackout backend reintegrated, coverage FULL, survivors \
charged exactly once"

echo "federation smoke passed"
