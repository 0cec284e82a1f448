#!/usr/bin/env python3
"""Perf gate over the BENCH_*.json artifacts produced by run_benches.sh
and tools/hdsky_loadgen. Three modes, auto-detected from the input:

substrate mode (BENCH_substrate.json)
  Gates the k-d leaf walk that answers every static-ranking query, and
  fails (exit 1) when it has regressed:

  * BM_ExecuteSelectiveQuery (the walk over in-memory leaves) must beat
    BM_ExecuteSelectiveQueryNaive, a row-at-a-time rank-order scan that
    lives in the bench as the reference, by at least
    --min-selective-speedup (default 3x) at the largest size, and
  * at the largest out-of-core size, BM_OocBroadQueryWarm (the walk over
    a warm buffer pool) must stay within --ooc-warm-tolerance of
    BM_OocMemBroadQuery (the same walk over in-memory leaves, timed in
    the same process): one walk, two leaf sources, so the ratio is the
    cost of pinning pages.

  The out-of-core tier adds two physical-layout gates at the largest
  size, applied to each BM_Ooc*Cold pair that is present (an artifact
  without the Comp/Pread variants skips them):

  * the Comp variant (encoded runs) must read at least
    --min-compress-bytes-ratio fewer stored bytes per cold query than
    its raw twin (bytes_read_per_iter counters; exactness of both is
    already gated by the differential battery), and
  * the Pread variant (pread read path) must keep its
    cold median within --pread-tolerance of the mmap twin's.

service mode (BENCH_service.json — any entry carrying a p99_us
counter, as written by hdsky_loadgen --json and micro_service_load)
  Gates the event-driven multi-tenant service under load:

  * every run must have completed (no error_occurred, no failed
    sessions), and
  * when --baseline points at a pinned BENCH_service.json, each run's
    p99 latency must stay within --p99-tolerance of the baseline run of
    the same family (the benchmark name up to the first '/', so a
    smoke-scaled "loadgen/sessions:100/..." still gates against the
    pinned "loadgen/sessions:1000/..." envelope).

federation mode (BENCH_federation.json — any entry carrying a
prune_ratio counter, as written by micro_federation and
hdsky_discover --federation-json)
  Gates federated discovery over K backends:

  * every run must have completed, and partial coverage (a backend
    failed or exhausted its budget) fails unless --allow-partial,
  * the cross-backend prune must answer at least --min-prune-ratio of
    the would-be queries from the shared dominance snapshot (the prune
    is structurally rare — witnesses must be extreme on every ranking
    attribute the query tree has not bounded yet, see
    docs/federation.md — so the floor is a fraction of a percent that
    still proves the machinery fires; names matching --prune-exempt,
    default "join", are exempt because join mode disables pruning),
  * runs that also report sequential_queries (micro_federation does)
    must pay strictly fewer federated queries than the K sequential
    discoveries they replace, and
  * runs that report skyline_match must report exactly 1.0 — the
    federated union skyline equals the merged-dataset ground truth, and
  * runs that report resumed_duplicate_queries (BM_FederatedResume, the
    stop-at-a-barrier-and-resume durability path) must report exactly 0:
    a resumed session replays none of the queries its first life already
    paid for. Their skyline_match is gated on the same 1.0 floor.

Only the Python standard library is used. Median aggregates are
preferred when the JSON carries repetitions; raw iterations are used
otherwise.
"""

import argparse
import json
import re
import sys


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        # 64 = EX_USAGE: the artifact is unreadable or not JSON — a CI
        # wiring problem, reported as such instead of a traceback.
        print(f"error: {path}: {e}", file=sys.stderr)
        sys.exit(64)


def select_runs(data):
    """The representative benchmark entries: median aggregates when
    present, raw (non-aggregate) iterations otherwise."""
    benches = data.get("benchmarks", [])
    medians = [b for b in benches if b.get("aggregate_name") == "median"]
    if medians:
        return medians
    return [b for b in benches if b.get("run_type") != "aggregate"]


def run_name(bench):
    return bench.get("run_name") or bench.get("name", "?")


def family(name):
    return name.split("/", 1)[0]


def time_ns(bench):
    unit = bench.get("time_unit", "ns")
    factor = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
    return bench["real_time"] * factor


def is_service_report(data):
    return any("p99_us" in b for b in data.get("benchmarks", []))


def is_federation_report(data):
    return any("prune_ratio" in b for b in data.get("benchmarks", []))


# ---------------------------------------------------------------------------
# substrate mode


def gate_substrate(data, args):
    times = {}
    for b in select_runs(data):
        times.setdefault(run_name(b), time_ns(b))
    failures = []

    def pairs(prefix):
        for name, t in sorted(times.items()):
            if name.startswith(prefix + "/"):
                naive = times.get(name.replace(prefix, prefix + "Naive", 1))
                if naive is not None:
                    yield name, t, naive

    checked = 0
    # The full speedup floor applies to the largest dataset; at smaller
    # (smoke-scaled) sizes the naive scan meets the selective query's
    # matches sooner, so they are only required not to regress past it.
    selective = list(pairs("BM_ExecuteSelectiveQuery"))
    largest = max((n for n, _, _ in selective),
                  key=lambda n: int(n.rsplit("/", 1)[1]),
                  default=None)
    for name, vec, naive in selective:
        checked += 1
        need = args.min_selective_speedup if name == largest else 1.0
        ratio = naive / vec
        verdict = "ok" if ratio >= need else "FAIL"
        print(f"{name}: walk {vec:.0f} ns vs naive {naive:.0f} ns "
              f"({ratio:.2f}x, need >= {need:.1f}x) [{verdict}]")
        if ratio < need:
            failures.append(f"{name}: selective speedup {ratio:.2f}x below "
                            f"{need:.1f}x")

    # Out-of-core tier (BM_Ooc*): every entry must have returned exact
    # answers (the differential battery against the in-memory leaves);
    # at the largest dataset size the data must exceed the buffer pool
    # by --min-ooc-ratio and the warm broad query must stay within
    # --ooc-warm-tolerance of the same walk over in-memory leaves. Smaller
    # (smoke-scaled) sizes run with a pool floored at one page, where
    # "warm" cannot hold, so like the selective floor above they are
    # only checked for exactness. The selective warm bench is reported
    # but not latency-gated: with the dataset 8x the pool, a
    # full-scan query is re-fault/CRC-bandwidth-bound by construction
    # (docs/performance.md).
    ooc = {}
    for b in select_runs(data):
        name = run_name(b)
        if name.startswith("BM_Ooc") and "exact_match" in b:
            ooc.setdefault(name, b)
    ooc_checked = 0
    for name, b in sorted(ooc.items()):
        ooc_checked += 1
        exact = b.get("exact_match", 0.0)
        verdict = "ok" if exact == 1.0 else "FAIL"
        print(f"{name}: exact_match {exact:.0f} [{verdict}]")
        if exact != 1.0:
            failures.append(f"{name}: paged answers diverged from the "
                            "in-memory leaves")

    def size_of(name):
        try:
            return int(name.rsplit("/", 1)[1])
        except (IndexError, ValueError):
            return -1

    ooc_largest = max(ooc, key=size_of, default=None)
    if ooc_largest is not None:
        b = ooc[ooc_largest]
        pool = b.get("pool_bytes", 0.0)
        dbytes = b.get("data_bytes", 0.0)
        ratio = dbytes / pool if pool else 0.0
        verdict = "ok" if ratio >= args.min_ooc_ratio else "FAIL"
        print(f"{ooc_largest}: data {dbytes:.0f} B over pool {pool:.0f} B "
              f"({ratio:.1f}x, need >= {args.min_ooc_ratio:.1f}x) "
              f"[{verdict}]")
        if ratio < args.min_ooc_ratio:
            failures.append(f"{ooc_largest}: dataset only {ratio:.1f}x the "
                            f"buffer pool, below "
                            f"{args.min_ooc_ratio:.1f}x")

        suffix = "/" + ooc_largest.rsplit("/", 1)[1]
        warm_name = "BM_OocBroadQueryWarm" + suffix
        mem_name = "BM_OocMemBroadQuery" + suffix
        warm = times.get(warm_name)
        mem = times.get(mem_name)
        page = b.get("page_bytes", 0.0)
        if page and pool < 2 * page:
            # A warm broad query visits more than one k-d leaf page;
            # under two pages of budget
            # (the eviction-churn CI configuration) every "warm" pin
            # re-faults, so only exactness and the ratio are gated.
            print(f"{warm_name}: warm gate skipped (pool {pool:.0f} B "
                  f"holds fewer than two {page:.0f} B pages — "
                  "eviction-churn configuration)")
        elif warm is None or mem is None:
            failures.append(f"{warm_name}: warm/memory-resident pair "
                            f"incomplete ({warm_name}: "
                            f"{'present' if warm else 'missing'}, "
                            f"{mem_name}: "
                            f"{'present' if mem else 'missing'})")
        else:
            bound = mem * args.ooc_warm_tolerance
            verdict = "ok" if warm <= bound else "FAIL"
            print(f"{warm_name}: warm pool {warm:.0f} ns vs in-memory "
                  f"leaves {mem:.0f} ns ({warm / mem:.2f}x, tolerance "
                  f"{args.ooc_warm_tolerance:.2f}x) [{verdict}]")
            if warm > bound:
                failures.append(f"{warm_name}: warm query {warm / mem:.2f}x "
                                f"the in-memory leaves, over "
                                f"{args.ooc_warm_tolerance:.2f}x")

        # Physical-layout gates over the cold variant matrix. Pairing is
        # by name: stripping the Comp / Pread suffixes of a variant must
        # yield another benchmark in the artifact; pairs whose other half
        # is absent (older artifacts, filtered runs) are skipped, not
        # failed.
        for base in ("BM_OocBroadQueryCold", "BM_OocSelectiveQueryCold"):
            for pread_suffix in ("", "Pread"):
                raw = ooc.get(base + pread_suffix + suffix)
                comp = ooc.get(base + "Comp" + pread_suffix + suffix)
                if raw is None or comp is None:
                    continue
                raw_b = raw.get("bytes_read_per_iter", 0.0)
                comp_b = comp.get("bytes_read_per_iter", 0.0)
                if comp_b <= 0:
                    failures.append(f"{base}Comp{pread_suffix}{suffix}: no "
                                    "bytes_read_per_iter counter")
                    continue
                ratio = raw_b / comp_b
                need = args.min_compress_bytes_ratio
                verdict = "ok" if ratio >= need else "FAIL"
                print(f"{base}Comp{pread_suffix}{suffix}: cold read "
                      f"{comp_b:.0f} B/query vs raw {raw_b:.0f} B/query "
                      f"({ratio:.1f}x fewer, need >= {need:.1f}x) "
                      f"[{verdict}]")
                if ratio < need:
                    failures.append(f"{base}Comp{pread_suffix}{suffix}: "
                                    f"compressed cold query reads only "
                                    f"{ratio:.1f}x fewer bytes than raw, "
                                    f"below {need:.1f}x")
            for comp_infix in ("", "Comp"):
                mmap_name = base + comp_infix + suffix
                pread_name = base + comp_infix + "Pread" + suffix
                mmap_t = times.get(mmap_name)
                pread_t = times.get(pread_name)
                if mmap_t is None or pread_t is None:
                    continue
                bound = mmap_t * args.pread_tolerance
                verdict = "ok" if pread_t <= bound else "FAIL"
                print(f"{pread_name}: cold {pread_t:.0f} ns vs mmap "
                      f"{mmap_t:.0f} ns ({pread_t / mmap_t:.2f}x, "
                      f"tolerance {args.pread_tolerance:.2f}x) [{verdict}]")
                if pread_t > bound:
                    failures.append(f"{pread_name}: pread cold median "
                                    f"{pread_t / mmap_t:.2f}x the mmap "
                                    f"path, over "
                                    f"{args.pread_tolerance:.2f}x")

    if checked == 0 and ooc_checked == 0:
        failures.append("no walk/naive bench pairs or out-of-core runs "
                        "found")
    return failures


# ---------------------------------------------------------------------------
# service mode


def gate_service(data, args):
    runs = select_runs(data)
    failures = []

    baseline_p99 = {}
    if args.baseline:
        for b in select_runs(load_json(args.baseline)):
            p99 = b.get("p99_us")
            if p99 is None:
                continue
            fam = family(run_name(b))
            baseline_p99[fam] = max(baseline_p99.get(fam, 0.0), p99)

    checked = 0
    for b in runs:
        name = run_name(b)
        if "p99_us" not in b:
            continue
        checked += 1
        if b.get("error_occurred"):
            failures.append(f"{name}: run failed: "
                            f"{b.get('error_message', 'unknown error')}")
            continue
        if b.get("sessions_failed", 0):
            failures.append(f"{name}: {b['sessions_failed']} session(s) "
                            "failed")

        sessions = b.get("sessions", 0)
        if sessions < args.min_sessions:
            failures.append(f"{name}: only {sessions} sessions, need >= "
                            f"{args.min_sessions}")

        p99 = b.get("p99_us")
        base = baseline_p99.get(family(name))
        if p99 is not None and base is not None and base > 0:
            bound = base * args.p99_tolerance
            verdict = "ok" if p99 <= bound else "FAIL"
            print(f"{name}: p99 {p99:.1f} us vs baseline {base:.1f} us "
                  f"(tolerance {args.p99_tolerance:.2f}x) [{verdict}]")
            if p99 > bound:
                failures.append(f"{name}: p99 {p99:.1f} us exceeds "
                                f"baseline {base:.1f} us by more than "
                                f"{args.p99_tolerance:.2f}x")
        elif p99 is not None and args.baseline:
            print(f"{name}: p99 {p99:.1f} us (no baseline entry for "
                  f"family '{family(name)}'; latency not gated)")

    if checked == 0:
        failures.append("no service-load runs found")
    return failures


# ---------------------------------------------------------------------------
# federation mode


def gate_federation(data, args):
    runs = select_runs(data)
    failures = []
    exempt = re.compile(args.prune_exempt)

    checked = 0
    for b in runs:
        name = run_name(b)
        if "prune_ratio" not in b:
            continue
        checked += 1
        if b.get("error_occurred"):
            failures.append(f"{name}: run failed: "
                            f"{b.get('error_message', 'unknown error')}")
            continue

        partial = b.get("partial_coverage", 0.0)
        if partial and not args.allow_partial:
            failures.append(f"{name}: partial coverage (a backend failed "
                            "or exhausted its budget); pass "
                            "--allow-partial if that is expected")

        paid = b.get("federated_queries", b.get("paid_queries"))
        pruned = b.get("pruned_queries", 0.0)
        ratio = b.get("prune_ratio", 0.0)
        if exempt.search(name):
            print(f"{name}: prune {ratio:.4f} (exempt), paid {paid:.0f}")
        else:
            verdict = "ok" if ratio >= args.min_prune_ratio else "FAIL"
            print(f"{name}: prune {ratio:.4f} "
                  f"(need >= {args.min_prune_ratio:.4f}), "
                  f"paid {paid:.0f}, pruned {pruned:.0f} [{verdict}]")
            if ratio < args.min_prune_ratio:
                failures.append(f"{name}: prune ratio {ratio:.4f} below "
                                f"{args.min_prune_ratio:.4f}")

        sequential = b.get("sequential_queries")
        if sequential is not None and paid is not None:
            verdict = "ok" if paid < sequential else "FAIL"
            print(f"{name}: federated {paid:.0f} vs sequential "
                  f"{sequential:.0f} queries [{verdict}]")
            if paid >= sequential:
                failures.append(f"{name}: federated run paid {paid:.0f} "
                                f"queries, not fewer than the "
                                f"{sequential:.0f} sequential ones")

        match = b.get("skyline_match")
        if match is not None:
            verdict = "ok" if match == 1.0 else "FAIL"
            print(f"{name}: skyline_match {match:.0f} "
                  f"(size {b.get('skyline_size', 0):.0f}) [{verdict}]")
            if match != 1.0:
                failures.append(f"{name}: federated union skyline does "
                                "not equal the merged-dataset ground "
                                "truth")

    # Durability runs (BM_FederatedResume) carry no prune_ratio — the
    # interesting quantity is the cross-life duplicate count, which must
    # be exactly zero: a resumed session pays only for work the first
    # life had not reached. Their skyline_match shares the 1.0 floor.
    for b in runs:
        name = run_name(b)
        dup = b.get("resumed_duplicate_queries")
        if dup is None or "prune_ratio" in b:
            continue
        checked += 1
        if b.get("error_occurred"):
            failures.append(f"{name}: run failed: "
                            f"{b.get('error_message', 'unknown error')}")
            continue
        verdict = "ok" if dup == 0 else "FAIL"
        print(f"{name}: resumed duplicates {dup:.0f} (need == 0) "
              f"[{verdict}]")
        if dup != 0:
            failures.append(f"{name}: resumed session re-issued "
                            f"{dup:.0f} queries its first life already "
                            "paid for")
        match = b.get("skyline_match")
        if match is not None:
            verdict = "ok" if match == 1.0 else "FAIL"
            print(f"{name}: skyline_match {match:.0f} [{verdict}]")
            if match != 1.0:
                failures.append(f"{name}: resumed skyline does not "
                                "equal the merged-dataset ground truth")

    if checked == 0:
        failures.append("no federation runs found")
    return failures


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("bench_json",
                    help="path to BENCH_substrate.json or BENCH_service.json")
    ap.add_argument("--mode",
                    choices=["auto", "substrate", "service", "federation"],
                    default="auto",
                    help="gate to apply (default: auto-detect by the "
                         "presence of p99_us / prune_ratio counters)")
    # substrate knobs
    ap.add_argument("--min-selective-speedup", type=float, default=3.0,
                    help="required naive/walk ratio on the "
                         "selective-query bench (default: 3.0)")
    ap.add_argument("--min-ooc-ratio", type=float, default=8.0,
                    help="min data_bytes/pool_bytes ratio the out-of-core "
                         "tier must demonstrate at its largest size "
                         "(default: 8.0)")
    ap.add_argument("--ooc-warm-tolerance", type=float, default=2.0,
                    help="max warm-pool/in-memory-leaves ratio on the "
                         "broad-query bench at the largest size "
                         "(default: 2.0)")
    ap.add_argument("--min-compress-bytes-ratio", type=float, default=2.0,
                    help="min raw/compressed stored-bytes-read ratio the "
                         "cold out-of-core tier must demonstrate at its "
                         "largest size (default: 2.0)")
    ap.add_argument("--pread-tolerance", type=float, default=1.10,
                    help="max pread/mmap cold-median ratio at the largest "
                         "out-of-core size (default: 1.10)")
    # service knobs
    ap.add_argument("--baseline", default=None,
                    help="pinned BENCH_service.json to gate p99 against")
    ap.add_argument("--p99-tolerance", type=float, default=2.5,
                    help="max candidate/baseline p99 ratio (default: 2.5; "
                         "generous because CI runners vary)")
    ap.add_argument("--min-sessions", type=int, default=1,
                    help="min concurrent sessions per run (default: 1)")
    # federation knobs
    ap.add_argument("--min-prune-ratio", type=float, default=0.005,
                    help="min fraction of would-be queries answered from "
                         "the shared dominance snapshot (default: 0.005)")
    ap.add_argument("--prune-exempt", default="join",
                    help="regex of run names exempt from the prune floor "
                         "(default: join — join mode disables pruning)")
    ap.add_argument("--allow-partial", action="store_true",
                    help="tolerate partial_coverage runs (expected when a "
                         "backend is killed on purpose)")
    args = ap.parse_args()

    data = load_json(args.bench_json)
    mode = args.mode
    if mode == "auto":
        if is_federation_report(data):
            mode = "federation"
        elif is_service_report(data):
            mode = "service"
        else:
            mode = "substrate"
        print(f"mode: {mode} (auto-detected)")

    if mode == "federation":
        failures = gate_federation(data, args)
    elif mode == "service":
        failures = gate_service(data, args)
    else:
        failures = gate_substrate(data, args)

    for msg in failures:
        print("error:", msg, file=sys.stderr)
    if failures:
        # Every failure message leads with the offending benchmark name;
        # repeat the distinct names in one line for quick CI triage.
        names = sorted({msg.split(":", 1)[0] for msg in failures})
        print("failed benchmarks:", ", ".join(names), file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
