#!/usr/bin/env python3
"""End-to-end loopback benchmark of hdsky skyline discovery.

    python3 perfbench/run.py --workload rq_mem --seed 1 --seconds 25 --trace 0

Run from the repository root. Builds the shipped tools (and the traced
driver) in Release under .bench_build/, generates the workload's inputs
from --seed, then runs closed-loop discovery sessions for --seconds: each
session starts fresh servers, runs one client against them and checks its
answer. Prints a table to stderr and, as the last line of stdout, one JSON
object with the end-to-end metrics (--trace 0) or the per-layer metrics of
the traced driver (--trace 1). Exits non-zero when any answer or query
cost is wrong. See perfbench/README.md.
"""

import argparse
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import datagen  # noqa: E402
import parsers  # noqa: E402
import spans as spanlib  # noqa: E402

K = 10
SYNC_EVERY = 256
CHECKPOINT_EVERY = 1024

# Sizes: see README.md for the measurements behind each choice.
WORKLOADS = {
    # One in-memory server at the paper's Blue Nile size.
    "rq_mem": {"sites": 1, "n": 209666, "paged": False, "journal": False},
    # hdsky_pack'ed (format v2) input served through a pread buffer pool
    # smaller than the decoded data (about 2.8 MB), client journaled.
    "rq_paged_journal": {"sites": 1, "n": 50000, "paged": True,
                         "pool_bytes": 2400000, "journal": True},
    # Three in-memory sites with independently seeded inputs, union.
    "rq_fed3": {"sites": 3, "n": 20000, "paged": False, "journal": False},
}

E2E_UNITS = {
    "queries_per_s": "1/s",
    "query_cost": "count",
    "setup_s": "s",
    "client_cpu_us_per_query": "us",
    "server_cpu_us_per_query": "us",
    "client_rss_mb": "MB",
    "server_rss_mb": "MB",
    "session_ok_ratio": "ratio",
}

LAYER_UNITS = {
    "core.self_us_per_query": "us",
    "net.rtt_us_p50": "us",
    "net.rtt_us_p99": "us",
    "net.rtt_samples": "count",
    "net.bytes_out_per_query": "B",
    "net.bytes_in_per_query": "B",
    "net.retries": "count",
    "net.reconnects": "count",
    "service.transport_us_per_query": "us",
    "service.cache_hit_ratio": "ratio",
    "service.busy_replies": "count",
    "service.shed": "count",
    "interface.execute_us_per_query": "us",
    "interface.execute_us_p50": "us",
    "interface.execute_us_p99": "us",
    "interface.execute_samples": "count",
    "interface.tuples_per_query": "count",
    "data.pool_hit_ratio": "ratio",
    "data.pool_misses_per_query": "count",
    "data.pool_evictions_per_query": "count",
    "data.bytes_read_per_query": "B",
    "data.prefetch_hit_ratio": "ratio",
    "recovery.append_us_per_query": "us",
    "recovery.checkpoint_us_per_query": "us",
    "recovery.checkpoints": "count",
    "recovery.bytes_written_per_query": "B",
    "federation.coordinator_us_per_query": "us",
    "federation.backend_wait_us_per_query": "us",
    "federation.prune_ratio": "ratio",
    "federation.rounds": "count",
    "federation.paid_over_sequential": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}

SESSION_TIMEOUT_S = 100
INPUT_SETS = 4
LISTEN_TIMEOUT_S = 30


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """One of the benchmark's own steps failed (build, inputs, a process
    that would not start)."""


# --------------------------------------------------------------------------
# Host context and build


def host_context(workdir, build_dir):
    def read(path):
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    model = ""
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    fstype = ""
    best = -1
    for line in read("/proc/mounts").splitlines():
        parts = line.split()
        if len(parts) >= 3 and str(workdir).startswith(parts[1]) and \
                len(parts[1]) > best:
            best, fstype = len(parts[1]), parts[2]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_start": os.getloadavg()[0],
        "workdir": str(workdir),
        "workdir_fs": fstype,
        "build_type": cmake_build_type(build_dir),
    }


def cmake_build_type(build_dir):
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        return ""
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return ""


def build(root):
    """Builds the tools, the driver and the launcher; returns the build
    directory."""
    build_dir = root / ".bench_build" / "perfbench"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
           "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("cmake configure failed")
    build_type = cmake_build_type(build_dir)
    if build_type != "Release":
        # A debug tree's numbers say nothing about the shipped binaries.
        raise BenchError("refusing build tree %s: CMAKE_BUILD_TYPE is %r, "
                         "not Release" % (build_dir, build_type))
    cmd = ["cmake", "--build", str(build_dir), "-j", jobs, "--target",
           "hdsky_serve", "hdsky_pack", "hdsky_discover", "perfbench_driver",
           "perfbench_measure"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return build_dir


# --------------------------------------------------------------------------
# Processes


def pin_cpus():
    """Pins the runner to the first allowed CPU and returns the set every
    session process runs on: the last allowed CPU. Client and servers share
    it, because on a VM a wake-up across CPUs is slow and varies (see
    README.md); the runner, asleep in wait4, keeps off it."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[0]})
    return {cpus[-1]}


def spawn(bins, args, cpus, stdout, stderr, rusage_path):
    """Starts args under perfbench_measure, which writes the program's own
    CPU time and peak RSS to rusage_path when it ends."""
    return subprocess.Popen(
        [str(a) for a in [bins["perfbench_measure"], rusage_path] + args],
        stdout=stdout, stderr=stderr, stdin=subprocess.DEVNULL, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, cpus))


def read_rusage(path):
    """(cpu seconds, peak RSS in MB) from a perfbench_measure file."""
    user_us, sys_us, maxrss_kib = Path(path).read_text().split()
    return (int(user_us) + int(sys_us)) / 1e6, int(maxrss_kib) / 1024.0


def wait_blocking(proc, timeout_s):
    """Waits for proc in wait4, so the runner never wakes during a session;
    kills it after timeout_s. Returns (exit code, wall seconds since the
    call, timed out)."""
    def on_alarm(signum, frame):
        # Not proc.kill(): it polls, which could reap the child before
        # wait4 does.
        os.kill(proc.pid, signal.SIGKILL)

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    t0 = time.perf_counter()
    try:
        while True:
            try:
                _, status, _ = os.wait4(proc.pid, 0)
                break
            except InterruptedError:
                continue
    finally:
        remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, remaining == 0


class Server:
    """One server process (hdsky_serve or the traced driver)."""

    def __init__(self, bins, args, cpus, stem):
        self.errfile = stem.with_suffix(".err")
        self.rusage_file = stem.with_suffix(".rusage")
        self.err = open(self.errfile, "w")
        self.proc = spawn(bins, args, cpus, subprocess.PIPE, self.err,
                          self.rusage_file)
        self.endpoint = None
        self.code = None

    def wait_listening(self, deadline):
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            while time.perf_counter() < deadline:
                if sel.select(timeout=max(0.0, deadline - time.perf_counter())):
                    line = self.proc.stdout.readline()
                    if not line:
                        break
                    if line.startswith("listening on "):
                        self.endpoint = line.split()[-1]
                        return True
        finally:
            sel.close()
        return False

    def stop(self):
        """SIGTERM, then reap; returns the parsed stderr summary."""
        if self.code is None:
            self.proc.send_signal(signal.SIGTERM)
            self.code, _, _ = wait_blocking(self.proc, 20)
        self.proc.stdout.close()
        self.err.close()
        return parsers.parse_summary(self.errfile.read_text())


# --------------------------------------------------------------------------
# Inputs and references


def prepare_set(spec, seed, workdir, discover_bin):
    """Writes one input set (one CSV per site, site i seeded seed + i) and
    returns its paths, ground-truth skyline and local reference costs."""
    csvs = []
    merged = []
    for i in range(spec["sites"]):
        rows = datagen.generate_blue_nile(spec["n"], seed + i)
        path = workdir / ("set%d-site%d.csv" % (seed, i))
        datagen.write_csv(rows, path)
        csvs.append(path)
        merged.extend(rows)
    # Local in-process cost of each site: a single-site remote session must
    # cost exactly this, and a federated one at most their sum.
    costs = []
    for path in csvs:
        r = subprocess.run(
            [str(discover_bin), "--data", str(path), "--algorithm", "rq",
             "--k", str(K)],
            capture_output=True, text=True, timeout=SESSION_TIMEOUT_S)
        if r.returncode != 0:
            raise BenchError("local reference run failed: " + r.stderr)
        costs.append(
            parsers.one(parsers.parse_summary(r.stdout), "queries")["paid"])
    return {"seed": seed, "csvs": csvs, "truth": datagen.skyline_values(merged),
            "local_costs": costs, "sequential_cost": sum(costs)}


def prepare_sets(spec, seeds, workdir, discover_bin):
    """Prepares the input sets in parallel, before anything is timed. Each
    set is made by a forked child, which hands it back as a JSON file in
    workdir (multiprocessing would put semaphores outside the checkout)."""
    children = {}
    for seed in seeds:
        path = workdir / ("set%d.json" % seed)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                inset = prepare_set(spec, seed, workdir, discover_bin)
                inset["csvs"] = [str(c) for c in inset["csvs"]]
                inset["truth"] = sorted(inset["truth"])
                path.write_text(json.dumps(inset))
                code = 0
            except BaseException as e:  # the child must reach _exit
                log("input set %d: %s" % (seed, e))
            finally:
                os._exit(code)
        children[pid] = path
    failed = 0
    for pid in children:
        _, status = os.waitpid(pid, 0)
        failed += os.waitstatus_to_exitcode(status) != 0
    if failed:
        raise BenchError("%d input set(s) could not be prepared" % failed)
    sets = []
    for path in children.values():
        inset = json.loads(path.read_text())
        inset["csvs"] = [Path(c) for c in inset["csvs"]]
        inset["truth"] = {tuple(v) for v in inset["truth"]}
        sets.append(inset)
    return sets


# --------------------------------------------------------------------------
# Sessions


def check_answer(inset, paid, out_csv, federated):
    """Returns a list of problems with a session's answer."""
    problems = []
    try:
        reason = datagen.compare_skyline(datagen.read_csv(out_csv),
                                         inset["truth"])
    except (OSError, ValueError) as e:
        reason = str(e)
    if reason:
        problems.append("skyline: " + reason)
    if federated:
        if paid > inset["sequential_cost"]:
            problems.append("federated cost %d above sequential %d" %
                            (paid, inset["sequential_cost"]))
    elif paid != inset["local_costs"][0]:
        problems.append("remote cost %d != local cost %d" %
                        (paid, inset["local_costs"][0]))
    return problems


def run_session(bench, inset, tag, traced):
    """Runs one session on an input set: fresh servers, one client."""
    spec, bins, cpus = bench["spec"], bench["bins"], bench["cpus"]
    wd = bench["workdir"] / tag
    wd.mkdir()
    res = {"problems": [], "set": inset["seed"]}
    servers = []
    try:
        # Setup: everything before the client starts.
        t_setup = time.perf_counter()
        if spec["paged"]:
            hdb = wd / "site0.hdb"
            r = subprocess.run(
                [str(bins["hdsky_pack"]), "--data", str(inset["csvs"][0]),
                 "--out", str(hdb)],
                capture_output=True, text=True, timeout=SESSION_TIMEOUT_S,
                preexec_fn=lambda: os.sched_setaffinity(0, cpus))
            if r.returncode != 0:
                raise BenchError("hdsky_pack failed: " + r.stderr)
            sources = [["--dataset-file", hdb, "--read-path", "pread",
                        "--buffer-pool-bytes", spec["pool_bytes"]]]
        else:
            sources = [["--data", csv] for csv in inset["csvs"]]
        for i, src in enumerate(sources):
            if traced:
                args = [bins["perfbench_driver"], "serve"] + src + [
                    "--k", K, "--spans", wd / ("server%d.spans" % i)]
            else:
                args = [bins["hdsky_serve"]] + src + [
                    "--k", K, "--loops", 1, "--workers", 1]
            servers.append(Server(bins, args, cpus, wd / ("server%d" % i)))
        deadline = time.perf_counter() + LISTEN_TIMEOUT_S
        for s in servers:
            if not s.wait_listening(deadline):
                raise BenchError("server did not start: " +
                                 s.errfile.read_text()[-500:])
        res["setup_s"] = time.perf_counter() - t_setup

        out_csv = wd / "skyline.csv"
        connect = ",".join(s.endpoint for s in servers)
        if traced:
            args = [bins["perfbench_driver"], "discover", "--connect",
                    connect, "--out", out_csv, "--spans", wd / "client.spans"]
        else:
            args = [bins["hdsky_discover"], "--connect", connect,
                    "--algorithm", "rq", "--out", out_csv]
        if spec["sites"] > 1:
            args += ["--federate", "union"]
        if spec["journal"]:
            args += ["--journal", wd / "journal", "--sync-every", SYNC_EVERY,
                     "--checkpoint-every", CHECKPOINT_EVERY]
        with open(wd / "client.out", "w") as out, \
                open(wd / "client.err", "w") as err:
            client = spawn(bins, args, cpus, out, err, wd / "client.rusage")
            code, wall, timed_out = wait_blocking(client, SESSION_TIMEOUT_S)
        res["wall_s"] = wall
        client_text = (wd / "client.out").read_text() + \
            (wd / "client.err").read_text()
        res["client"] = parsers.parse_summary(client_text)
        if timed_out or code != 0:
            res["problems"].append("client exit %d%s: %s" % (
                code, " (timeout)" if timed_out else "",
                client_text.strip()[-300:]))
            return res
        res["client_cpu_s"], res["client_rss_mb"] = read_rusage(
            wd / "client.rusage")
        kind = "fed_queries" if spec["sites"] > 1 else "queries"
        res["paid"] = parsers.one(res["client"], kind)["paid"]
        res["problems"] += check_answer(inset, res["paid"], out_csv,
                                        spec["sites"] > 1)
        res["wd"] = wd
    except (BenchError, ValueError, OSError) as e:
        res["problems"].append(str(e))
    finally:
        res["servers"] = []
        res["server_cpu_s"] = 0.0
        res["server_rss_mb"] = 0.0
        for s in servers:
            try:
                res["servers"].append(s.stop())
                cpu, rss = read_rusage(s.rusage_file)
            except (OSError, ValueError) as e:
                res["problems"].append("server stop: %s" % e)
                continue
            res["server_cpu_s"] += cpu
            res["server_rss_mb"] += rss
            if s.code != 0:
                res["problems"].append("server exit %d" % s.code)
    if not res["problems"]:
        # RQ-DB-SKY may repeat a query; the journal answers a repeat from
        # its replay map, so only the journal's paid queries reach a server.
        sent = res["paid"]
        if spec["journal"]:
            sent = parsers.one(res["client"], "journal")["paid"]
        served = sum(parsers.total(s, "served", "queries")
                     for s in res["servers"])
        if served != sent:
            res["problems"].append("servers answered %d queries, client "
                                   "sent %d" % (served, sent))
    return res


def e2e_metrics(res):
    paid = res["paid"]
    return {
        "queries_per_s": paid / res["wall_s"],
        "query_cost": paid,
        "setup_s": res["setup_s"],
        "client_cpu_us_per_query": res["client_cpu_s"] * 1e6 / paid,
        "server_cpu_us_per_query": res["server_cpu_s"] * 1e6 / paid,
        "client_rss_mb": res["client_rss_mb"],
        "server_rss_mb": res["server_rss_mb"],
    }


# --------------------------------------------------------------------------
# Per-layer metrics of one traced session


def layer_metrics(res, inset, untraced_wall_s):
    wd = res["wd"]
    client = spanlib.read_spans(wd / "client.spans")
    offset = len(client)
    server = []
    for i in range(len(res["servers"])):
        part = spanlib.read_spans(wd / ("server%d.spans" % i),
                                  id_offset=offset, backend=i)
        offset += len(part)
        server += part
    server = spanlib.link(client, server)
    every = client + server
    selfs = spanlib.self_times(every)
    by_name = {}
    for s in every:
        by_name.setdefault(s.name, []).append(s)
    root = by_name["session"][0]
    paid = res["paid"]
    us = 1e-3  # ns -> us

    def total_self(name):
        return sum(selfs[s.id] for s in by_name.get(name, ()))

    rtt = [(s.end - s.start) * us for s in by_name.get("net.execute", ())]
    execs = [(s.end - s.start) * us for s in server]
    top = [(s.start, s.end) for s in every if s.parent == root.id]
    covered = spanlib.union_length(top)
    summary = res["client"]
    net = summary.get("network", [])
    srv = res["servers"]
    served = sum(parsers.total(s, "served", "queries") for s in srv)
    pool_hits = sum(parsers.total(s, "pool", "hits") for s in srv)
    pool_misses = sum(parsers.total(s, "pool", "misses") for s in srv)
    prefetched = sum(parsers.total(s, "pool", "prefetched") for s in srv)
    prefetch_hits = sum(parsers.total(s, "pool", "prefetch_hits")
                        for s in srv)
    backend_queries = sum(parsers.total(s, "backend", "queries") for s in srv)
    pruned = sum(q["pruned"] for q in summary.get("fed_queries", []))
    rounds = sum(q["rounds"] for q in summary.get("fed_queries", []))
    written = 0
    for line in (wd / "client.err").read_text().splitlines():
        if line.startswith("written : "):
            written = int(line.split()[2])
    sent = sum(n["queries"] for n in net)
    executed = sum(parsers.total(s, "cache", "executions") for s in srv)
    if len(rtt) != sent or len(execs) != executed:
        raise BenchError("traced %d of %d remote calls and %d of %d server "
                         "executions" % (len(rtt), sent, len(execs),
                                         executed))
    return {
        "core.self_us_per_query": selfs[root.id] * us / paid,
        "net.rtt_us_p50": spanlib.percentile(rtt, 50),
        "net.rtt_us_p99": spanlib.percentile(rtt, 99),
        "net.rtt_samples": len(rtt),
        "net.bytes_out_per_query": sum(n["bytes_out"] for n in net) / paid,
        "net.bytes_in_per_query": sum(n["bytes_in"] for n in net) / paid,
        "net.retries": sum(n["retries"] for n in net),
        "net.reconnects": sum(n["reconnects"] for n in net),
        "service.transport_us_per_query": total_self("net.execute") * us /
        paid,
        "service.cache_hit_ratio":
            sum(parsers.total(s, "cache", "hits") for s in srv) /
            max(1, served),
        "service.busy_replies": sum(parsers.total(s, "served", "busy")
                                    for s in srv),
        "service.shed": sum(parsers.total(s, "served", "shed") for s in srv),
        "interface.execute_us_per_query": sum(execs) / paid,
        "interface.execute_us_p50": spanlib.percentile(execs, 50),
        "interface.execute_us_p99": spanlib.percentile(execs, 99),
        "interface.execute_samples": len(execs),
        "interface.tuples_per_query":
            sum(parsers.total(s, "backend", "tuples") for s in srv) /
            max(1, backend_queries),
        "data.pool_hit_ratio":
            pool_hits / max(1, pool_hits + pool_misses),
        "data.pool_misses_per_query": pool_misses / paid,
        "data.pool_evictions_per_query":
            sum(parsers.total(s, "pool", "evictions") for s in srv) / paid,
        "data.bytes_read_per_query":
            sum(parsers.total(s, "pool", "bytes_read") for s in srv) / paid,
        "data.prefetch_hit_ratio": prefetch_hits / max(1, prefetched),
        "recovery.append_us_per_query": total_self("recovery.execute") * us /
        paid,
        "recovery.checkpoint_us_per_query":
            total_self("recovery.checkpoint") * us / paid,
        "recovery.checkpoints": len(by_name.get("recovery.checkpoint", ())),
        "recovery.bytes_written_per_query": written / paid,
        "federation.coordinator_us_per_query":
            ((root.end - root.start) - covered) * us / paid,
        "federation.backend_wait_us_per_query": covered * us / paid,
        "federation.prune_ratio": pruned / (paid + pruned),
        "federation.rounds": rounds,
        "federation.paid_over_sequential": paid / inset["sequential_cost"],
        "trace.overhead_ratio": res["wall_s"] / untraced_wall_s,
        "trace.coverage": spanlib.coverage(every, selfs),
    }


# --------------------------------------------------------------------------
# Reporting


def median_metrics(rows):
    """Median over the input sets of each set's median over its sessions,
    so every set weighs the same whatever its session count."""
    by_set = {}
    for key, row in rows:
        by_set.setdefault(key, []).append(row)
    per_set = [{name: statistics.median(r[name] for r in group)
                for name in group[0]} for group in by_set.values()]
    return {name: statistics.median(r[name] for r in per_set)
            for name in per_set[0]}


def emit(correct, attempted, failed, metrics, units, host):
    log("host    : " + json.dumps(host, sort_keys=True))
    for name, value in metrics.items():
        log("  %-36s %16.6f %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def keep_going(args, done, elapsed, num_sets):
    """Sessions run in whole rounds over the input sets until --seconds
    have passed; the traced run ends on a traced session. A hard cap bounds
    runs whose sessions keep failing."""
    if elapsed > args.seconds + SESSION_TIMEOUT_S:
        return False
    per_round = 2 if args.trace == 1 else num_sets
    return done == 0 or done % per_round != 0 or elapsed < args.seconds


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not (root / needed).exists():
            log("perfbench: %s is not an hdsky source tree (no %s)" %
                (root, needed))
            return 2
    try:
        build_dir = build(root)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 2
    tools = build_dir / "hdsky" / "tools"
    bins = {name: tools / name
            for name in ("hdsky_serve", "hdsky_pack", "hdsky_discover")}
    for name in ("perfbench_driver", "perfbench_measure"):
        bins[name] = build_dir / name

    workdir = root / ".bench_build" / "run" / (
        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    host = host_context(workdir, build_dir)
    spec = WORKLOADS[args.workload]
    try:
        t0 = time.perf_counter()
        # Sessions rotate over several input sets derived from the seed, so
        # a run's medians do not hang on one draw of the data. The traced
        # run compares traced and untraced sessions on one set.
        seeds = [args.seed + 1000 * j
                 for j in range(1 if args.trace else INPUT_SETS)]
        sets = prepare_sets(spec, seeds, workdir, bins["hdsky_discover"])
        log("inputs  : %d set(s) of %d site(s) x %d rows, skylines %s, "
            "local costs %s (%.1f s)" % (
                len(sets), spec["sites"], spec["n"],
                [len(s["truth"]) for s in sets],
                [s["local_costs"] for s in sets], time.perf_counter() - t0))
        cpus = pin_cpus()
        host["session_cpus"] = sorted(cpus)
        bench = {"spec": spec, "bins": bins, "workdir": workdir,
                 "cpus": cpus}
        sessions = []
        rows = []
        untraced_walls = []
        start = time.perf_counter()
        while keep_going(args, len(sessions), time.perf_counter() - start,
                         len(sets)):
            n = len(sessions)
            # The traced run alternates untraced and traced sessions so the
            # overhead ratio compares neighbours on the same input.
            traced = args.trace == 1 and n % 2 == 1
            inset = sets[n % len(sets)]
            res = run_session(bench, inset, "s%d" % n, traced)
            sessions.append(res)
            if not res["problems"] and traced:
                try:
                    rows.append((inset["seed"], layer_metrics(
                        res, inset, statistics.median(untraced_walls))))
                except (BenchError, ValueError, KeyError,
                        statistics.StatisticsError) as e:
                    res["problems"].append("trace: %s" % e)
            if res["problems"]:
                log("session %d FAILED: %s" % (n, "; ".join(res["problems"])))
                continue
            log("session %d%s: set %d, %d paid, %.3f s, setup %.3f s" % (
                n, " (traced)" if traced else "", inset["seed"], res["paid"],
                res["wall_s"], res["setup_s"]))
            if not traced:
                untraced_walls.append(res["wall_s"])
                if args.trace == 0:
                    rows.append((inset["seed"], e2e_metrics(res)))
        failed = sum(1 for r in sessions if r["problems"])
        costs = {(r["set"], r["paid"]) for r in sessions if "paid" in r}
        if len(costs) > len({c[0] for c in costs}):
            log("query cost differs between sessions on one input: %s" %
                sorted(costs))
            failed = len(sessions)
        host["loadavg_end"] = os.getloadavg()[0]
        if not rows:
            log("perfbench: no session succeeded")
            return 1
        metrics = median_metrics(rows)
        if args.trace == 0:
            metrics["session_ok_ratio"] = 1.0 - failed / len(sessions)
            units = E2E_UNITS
            log("  %-36s %16.6f ratio" % ("session_fail_ratio",
                                          failed / len(sessions)))
        else:
            units = LAYER_UNITS
        emit(failed == 0, len(sessions), failed, metrics, units, host)
        return 0 if failed == 0 else 1
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
