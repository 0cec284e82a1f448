#!/bin/sh
# Argument-validation contract for the CLI tools: unknown flags and
# malformed values must print usage to stderr and exit non-zero (64),
# and must not start doing work.
#
# Usage: cli_args_test.sh <hdsky_discover> <hdsky_serve> [hdsky_pack]
#                         [hdsky_proxy] [hdsky_loadgen]
set -u

DISCOVER=$1
SERVE=$2
PACK=${3:-}
PROXY=${4:-}
LOADGEN=${5:-}
failures=0

# expect_usage <label> <binary> [args...]
expect_usage() {
  label=$1
  shift
  err=$("$@" 2>&1 >/dev/null)
  code=$?
  if [ "$code" -ne 64 ]; then
    echo "FAIL($label): exit $code, want 64" >&2
    failures=$((failures + 1))
    return
  fi
  case "$err" in
    *usage:*) ;;
    *)
      echo "FAIL($label): no usage on stderr; got: $err" >&2
      failures=$((failures + 1))
      ;;
  esac
}

# Unknown flags.
expect_usage "discover-unknown-flag" "$DISCOVER" --demo route --bogus
expect_usage "serve-unknown-flag" "$SERVE" --demo route --bogus

# Source selection: none, two, all three.
expect_usage "discover-no-source" "$DISCOVER"
expect_usage "discover-two-sources" "$DISCOVER" --demo route --data x.csv
expect_usage "discover-connect-plus-demo" \
  "$DISCOVER" --connect 127.0.0.1:1 --demo route
expect_usage "serve-no-source" "$SERVE"

# Malformed --connect specs.
expect_usage "connect-no-colon" "$DISCOVER" --connect localhost
expect_usage "connect-bad-port" "$DISCOVER" --connect localhost:notaport
expect_usage "connect-port-zero" "$DISCOVER" --connect localhost:0
expect_usage "connect-port-high" "$DISCOVER" --connect localhost:65536

# Malformed numerics: trailing garbage, negatives, zero where >= 1.
expect_usage "threads-garbage" "$DISCOVER" --demo route --trials 2 --threads 2x
expect_usage "trials-zero" "$DISCOVER" --demo route --trials 0
expect_usage "trials-negative" "$DISCOVER" --demo route --trials -3
expect_usage "k-garbage" "$DISCOVER" --demo route --k ten
expect_usage "n-zero" "$DISCOVER" --demo route --n 0
expect_usage "budget-negative" "$DISCOVER" --demo route --budget -1
expect_usage "serve-port-garbage" "$SERVE" --demo route --port 80h
expect_usage "serve-max-conn-zero" "$SERVE" --demo route --max-connections 0

# Server knobs: there is one engine, so --engine is an unknown flag, and
# no admission queue, so --max-pending is one too; malformed values of
# the real knobs are rejected.
expect_usage "serve-engine-removed" "$SERVE" --demo route --engine threaded
expect_usage "serve-loops-garbage" "$SERVE" --demo route --loops 2x
expect_usage "serve-loops-negative" "$SERVE" --demo route --loops -1
expect_usage "serve-max-pending-removed" "$SERVE" --demo route --max-pending 8
expect_usage "serve-idle-timeout-negative" \
  "$SERVE" --demo route --idle-timeout-ms -5

# Flags that need a value but sit at the end of the line.
expect_usage "discover-dangling-value" "$DISCOVER" --demo
expect_usage "serve-dangling-value" "$SERVE" --demo route --port

# Local-interface flags are rejected alongside --connect.
expect_usage "connect-with-k" "$DISCOVER" --connect 127.0.0.1:1 --k 5
expect_usage "connect-with-budget" "$DISCOVER" --connect 127.0.0.1:1 --budget 9
expect_usage "connect-with-trials" "$DISCOVER" --connect 127.0.0.1:1 --trials 2

# Durable-session flags: journal knobs need --journal, and single-run
# durability is incompatible with --trials.
expect_usage "sync-every-without-journal" \
  "$DISCOVER" --demo route --sync-every 4
expect_usage "checkpoint-every-without-journal" \
  "$DISCOVER" --demo route --checkpoint-every 16
expect_usage "sync-every-zero" \
  "$DISCOVER" --demo route --journal /tmp/j --sync-every 0
expect_usage "checkpoint-every-garbage" \
  "$DISCOVER" --demo route --journal /tmp/j --checkpoint-every 5x
expect_usage "journal-with-trials" \
  "$DISCOVER" --demo route --trials 2 --journal /tmp/j
expect_usage "cache-file-with-trials" \
  "$DISCOVER" --demo route --trials 2 --cache-file /tmp/c
expect_usage "trace-with-trials" \
  "$DISCOVER" --demo route --trials 2 --trace /tmp/t.csv

# Federation flags: --federate's vocabulary, and the flags it requires,
# forbids, or combines with.
expect_usage "federate-unknown-mode" \
  "$DISCOVER" --connect 127.0.0.1:1 --federate both
expect_usage "federate-without-connect" "$DISCOVER" --demo route --federate union
expect_usage "multi-connect-without-federate" \
  "$DISCOVER" --connect 127.0.0.1:1,127.0.0.1:2
expect_usage "connect-bad-second-endpoint" \
  "$DISCOVER" --connect 127.0.0.1:1,localhost --federate union
expect_usage "join-without-join-attr" \
  "$DISCOVER" --connect 127.0.0.1:1,127.0.0.1:2 --federate join
expect_usage "union-with-join-attr" \
  "$DISCOVER" --connect 127.0.0.1:1,127.0.0.1:2 --federate union --join-attr id
expect_usage "round-budget-without-federate" \
  "$DISCOVER" --connect 127.0.0.1:1 --round-budget 16
expect_usage "federation-json-without-federate" \
  "$DISCOVER" --connect 127.0.0.1:1 --federation-json /tmp/f.json
expect_usage "round-budget-garbage" \
  "$DISCOVER" --connect 127.0.0.1:1 --federate union --round-budget 8x
expect_usage "federate-with-cache" \
  "$DISCOVER" --connect 127.0.0.1:1 --federate union --cache
expect_usage "federate-with-trace" \
  "$DISCOVER" --connect 127.0.0.1:1 --federate union --trace /tmp/t.csv
expect_usage "federate-bad-algorithm" \
  "$DISCOVER" --connect 127.0.0.1:1 --federate union --algorithm baseline

# Health-machine knobs ride only on --federate, and their ranges hold.
expect_usage "probe-attempts-without-federate" \
  "$DISCOVER" --connect 127.0.0.1:1 --probe-attempts 5
expect_usage "probe-backoff-without-federate" \
  "$DISCOVER" --connect 127.0.0.1:1 --probe-backoff 3
expect_usage "probe-attempts-garbage" \
  "$DISCOVER" --connect 127.0.0.1:1 --federate union --probe-attempts 5x
expect_usage "probe-attempts-negative" \
  "$DISCOVER" --connect 127.0.0.1:1 --federate union --probe-attempts -1
expect_usage "probe-backoff-zero" \
  "$DISCOVER" --connect 127.0.0.1:1 --federate union --probe-backoff 0

# Exit-code contract for unreachable backends: a FRESH run that cannot
# connect is an ordinary failure (1), but when a journal directory shows
# an existing session the same failure is 69/EX_UNAVAILABLE — "the
# session is intact, the site is down, retry later" — for both the
# single-site and the federated resume paths.
expect_unavailable_on_resume() {
  label=$1
  shift
  "$@" >/dev/null 2>&1
  code=$?
  if [ "$code" -ne 69 ]; then
    echo "FAIL($label): exit $code, want 69" >&2
    failures=$((failures + 1))
  fi
}
tmpj=$(mktemp -d)
# Fresh journal, dead endpoint: nothing to preserve, plain failure.
"$DISCOVER" --connect 127.0.0.1:1 --journal "$tmpj/fresh" >/dev/null 2>&1
code=$?
if [ "$code" -ne 1 ]; then
  echo "FAIL(fresh-connect-failure-exit): exit $code, want 1" >&2
  failures=$((failures + 1))
fi
# Single-site resume: a MANIFEST marks an existing session.
mkdir -p "$tmpj/single"
: > "$tmpj/single/MANIFEST"
expect_unavailable_on_resume "single-resume-backend-down" \
  "$DISCOVER" --connect 127.0.0.1:1 --journal "$tmpj/single"
# Federated resume: a STATE checkpoint marks an existing session.
mkdir -p "$tmpj/fed"
: > "$tmpj/fed/STATE"
expect_unavailable_on_resume "federated-resume-backend-down" \
  "$DISCOVER" --connect 127.0.0.1:1,127.0.0.1:2 --federate union \
  --journal "$tmpj/fed"
rm -rf "$tmpj"

# --dump-data is a local-table affair.
expect_usage "dump-data-with-connect" \
  "$DISCOVER" --connect 127.0.0.1:1 --dump-data /tmp/d.csv
expect_usage "dump-data-with-trials" \
  "$DISCOVER" --demo route --trials 2 --dump-data /tmp/d.csv

# Out-of-core flags: --dataset-file is a data source (exactly one of
# --data/--demo/--dataset-file/--connect), --buffer-pool-bytes rides
# only on it, and a packed file fixes generation/ranking knobs at pack
# time. Validation fires before the file is opened, so the paths need
# not exist.
expect_usage "serve-dataset-file-plus-demo" \
  "$SERVE" --demo route --dataset-file /tmp/x.hdb
expect_usage "serve-dataset-file-with-ranking" \
  "$SERVE" --dataset-file /tmp/x.hdb --ranking sum
expect_usage "serve-pool-without-dataset-file" \
  "$SERVE" --demo route --buffer-pool-bytes 1048576
expect_usage "serve-pool-bytes-garbage" \
  "$SERVE" --dataset-file /tmp/x.hdb --buffer-pool-bytes 1m
expect_usage "serve-pool-bytes-zero" \
  "$SERVE" --dataset-file /tmp/x.hdb --buffer-pool-bytes 0
expect_usage "serve-dataset-file-dangling" "$SERVE" --dataset-file
expect_usage "discover-dataset-file-plus-demo" \
  "$DISCOVER" --demo route --dataset-file /tmp/x.hdb
expect_usage "discover-dataset-file-plus-connect" \
  "$DISCOVER" --connect 127.0.0.1:1 --dataset-file /tmp/x.hdb
expect_usage "discover-pool-without-dataset-file" \
  "$DISCOVER" --demo route --buffer-pool-bytes 1048576
expect_usage "discover-pool-bytes-zero" \
  "$DISCOVER" --dataset-file /tmp/x.hdb --buffer-pool-bytes 0
expect_usage "discover-dataset-file-with-n" \
  "$DISCOVER" --dataset-file /tmp/x.hdb --n 100
expect_usage "discover-dataset-file-with-seed" \
  "$DISCOVER" --dataset-file /tmp/x.hdb --seed 5
expect_usage "discover-dataset-file-with-ranking" \
  "$DISCOVER" --dataset-file /tmp/x.hdb --ranking sum
expect_usage "discover-dataset-file-with-trials" \
  "$DISCOVER" --dataset-file /tmp/x.hdb --trials 2
expect_usage "discover-dataset-file-with-dump-data" \
  "$DISCOVER" --dataset-file /tmp/x.hdb --dump-data /tmp/d.csv

# hdsky_pack (when supplied): source/output selection and block
# geometry validation.
if [ -n "$PACK" ]; then
  expect_usage "pack-no-source" "$PACK" --out /tmp/x.hdb
  expect_usage "pack-two-sources" \
    "$PACK" --demo route --data x.csv --out /tmp/x.hdb
  expect_usage "pack-missing-out" "$PACK" --demo route
  expect_usage "pack-out-dangling" "$PACK" --demo route --out
  expect_usage "pack-rows-per-block-zero" \
    "$PACK" --demo route --out /tmp/x.hdb --rows-per-block 0
  expect_usage "pack-rows-per-block-garbage" \
    "$PACK" --demo route --out /tmp/x.hdb --rows-per-block 4k
  expect_usage "pack-n-zero" "$PACK" --demo route --out /tmp/x.hdb --n 0
  expect_usage "pack-unknown-flag" \
    "$PACK" --demo route --out /tmp/x.hdb --bogus
  expect_usage "pack-compress-unknown" \
    "$PACK" --demo route --out /tmp/x.hdb --compress gzip
  expect_usage "pack-compress-dangling" \
    "$PACK" --demo route --out /tmp/x.hdb --compress
fi

# Read-path flags: vocabulary, numeric range, and the --dataset-file
# dependency (the pool flags describe a paged table, nothing else).
expect_usage "discover-read-path-unknown" \
  "$DISCOVER" --dataset-file /tmp/x.hdb --read-path directio
expect_usage "discover-read-path-dangling" \
  "$DISCOVER" --dataset-file /tmp/x.hdb --read-path
expect_usage "discover-read-path-without-dataset-file" \
  "$DISCOVER" --demo route --read-path pread
expect_usage "serve-read-path-unknown" \
  "$SERVE" --dataset-file /tmp/x.hdb --read-path directio
expect_usage "serve-read-path-without-dataset-file" \
  "$SERVE" --demo route --read-path mmap

# A below-one-page --buffer-pool-bytes must not be silently clamped:
# the run proceeds (exit 0) but a warning with the effective budget
# lands on stderr.
if [ -n "$PACK" ]; then
  tmpdir=$(mktemp -d)
  if "$PACK" --demo bluenile --n 500 --out "$tmpdir/clamp.hdb" \
      >/dev/null 2>&1; then
    err=$("$DISCOVER" --dataset-file "$tmpdir/clamp.hdb" \
        --buffer-pool-bytes 1 --algorithm rq --k 5 2>&1 >/dev/null)
    code=$?
    if [ "$code" -ne 0 ]; then
      echo "FAIL(pool-clamp-warning): exit $code, want 0" >&2
      failures=$((failures + 1))
    else
      case "$err" in
        *"warning: --buffer-pool-bytes 1 below one page"*) ;;
        *)
          echo "FAIL(pool-clamp-warning): no clamp warning; got: $err" >&2
          failures=$((failures + 1))
          ;;
      esac
    fi
  else
    echo "FAIL(pool-clamp-warning): pack step failed" >&2
    failures=$((failures + 1))
  fi
  rm -rf "$tmpdir"
fi

# A block file in a retired format (v1/v2: rank-ordered pages) is a load
# failure, not a usage error: hdsky_serve exits 1 and says to re-pack.
# The magic and version alone are enough; nothing past them is read.
tmpr=$(mktemp -d)
for v in 1 2; do
  printf "HDSKYBF1\\00${v}\\000\\000\\000" > "$tmpr/v$v.hdb"
  head -c 8192 /dev/zero >> "$tmpr/v$v.hdb"
  err=$("$SERVE" --dataset-file "$tmpr/v$v.hdb" --port 0 2>&1 >/dev/null)
  code=$?
  if [ "$code" -ne 1 ]; then
    echo "FAIL(serve-retired-format-v$v): exit $code, want 1" >&2
    failures=$((failures + 1))
  else
    case "$err" in
      *"re-pack it with hdsky_pack"*) ;;
      *)
        echo "FAIL(serve-retired-format-v$v): no re-pack hint; got: $err" >&2
        failures=$((failures + 1))
        ;;
    esac
  fi
done
rm -rf "$tmpr"

# Vocabularies are checked at parse time, before any data is generated or
# any journal is written: a typo'd --algorithm must not leave a MANIFEST
# that binds the journal directory to the typo.
tmpv=$(mktemp -d)
expect_usage "algorithm-unknown" \
  "$DISCOVER" --demo route --algorithm bogus --journal "$tmpv/j"
if [ -e "$tmpv/j" ]; then
  echo "FAIL(algorithm-unknown): journal directory written" >&2
  failures=$((failures + 1))
fi
rm -rf "$tmpv"
expect_usage "demo-unknown" "$DISCOVER" --demo bogus
expect_usage "ranking-unknown" "$DISCOVER" --demo route --ranking max
expect_usage "serve-demo-unknown" "$SERVE" --demo bogus
expect_usage "serve-ranking-unknown" "$SERVE" --demo route --ranking lex
# An unknown lex: attribute is a property of the loaded schema: exit 1.
"$DISCOVER" --demo route --n 50 --ranking lex:no_such_attr >/dev/null 2>&1
code=$?
if [ "$code" -ne 1 ]; then
  echo "FAIL(lex-unknown-attribute): exit $code, want 1" >&2
  failures=$((failures + 1))
fi

# Combinations that used to be dropped silently or rejected only after
# the run had paid for its queries.
expect_usage "out-with-trials" "$DISCOVER" --demo route --trials 2 --out /tmp/o.csv
expect_usage "cache-with-trials" "$DISCOVER" --demo route --trials 2 --cache
expect_usage "federate-join-with-out" \
  "$DISCOVER" --connect 127.0.0.1:1,127.0.0.1:2 --federate join \
  --join-attr id --out /tmp/o.csv

if [ -n "$PACK" ]; then
  expect_usage "pack-demo-unknown" "$PACK" --demo bogus --out /tmp/x.hdb
  expect_usage "pack-ranking-unknown" \
    "$PACK" --demo route --out /tmp/x.hdb --ranking max
fi

if [ -n "$PROXY" ]; then
  expect_usage "proxy-unknown-flag" "$PROXY" --upstream 127.0.0.1:1 --bogus
  expect_usage "proxy-dangling-value" "$PROXY" --upstream 127.0.0.1:1 --port
  expect_usage "proxy-port-garbage" "$PROXY" --upstream 127.0.0.1:1 --port 8x
  expect_usage "proxy-drop-garbage" "$PROXY" --upstream 127.0.0.1:1 --drop 1.5
  expect_usage "proxy-no-upstream" "$PROXY"
  expect_usage "proxy-upstream-malformed" "$PROXY" --upstream localhost
  expect_usage "proxy-upstream-list" \
    "$PROXY" --upstream 127.0.0.1:1,127.0.0.1:2
fi

if [ -n "$LOADGEN" ]; then
  expect_usage "loadgen-unknown-flag" "$LOADGEN" --bogus
  expect_usage "loadgen-dangling-value" "$LOADGEN" --sessions
  expect_usage "loadgen-sessions-garbage" "$LOADGEN" --sessions 10x
  expect_usage "loadgen-connect-malformed" "$LOADGEN" --connect localhost
  # The in-process server's knobs mean nothing beside --connect.
  for f in "--n 5" "--m 3" "--k 5" "--server-loops 1"; do
    # shellcheck disable=SC2086
    expect_usage "loadgen-connect-with-${f%% *}" \
      "$LOADGEN" --connect 127.0.0.1:1 $f
  done
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures argument-validation case(s) failed" >&2
  exit 1
fi
echo "all argument-validation cases passed"
