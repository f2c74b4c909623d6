#!/usr/bin/env python3
"""Run one workload of the lacr benchmark and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload iscas|serve --seed N \
        --seconds S --trace 0|1

The script builds the benchmark executable (perfbench/bench.exe) and
the lacrd daemon from source with dune, runs the named workload and
prints, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (END_TO_END), with
--trace 1 the per-layer ones (PER_LAYER).  iscas is planned
in-process by bench.exe; serve drives lacrd over its wire protocol
from this process (one client process, two connections, closed loop).
Every plan is checked; a wrong answer counts in "failed".

Both workloads time every circuit several times in a run, scale each
time to a reference host speed that bench.exe's reference kernels
measure next to it, and report each circuit's median scaled time; the
timing metrics are built from those ten figures (see RECORD.md).

Exits with code 2, printing no result, when the program cannot be
built (for instance when the checkout holds only the benchmark).
"""

import argparse
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "_build", "default")
BENCH_EXE = os.path.join(BUILD, "perfbench", "bench.exe")
LACRD_EXE = os.path.join(BUILD, "bin", "lacrd.exe")
GOLDEN = os.path.join(HERE, "golden.tsv")

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("throughput_rps", "1/s"),
    ("violations_removed_pct", "%"),
    ("n_f_total", "count"),
]

PER_LAYER = [
    ("build.ms", "ms"),
    ("build.partition.ms", "ms"),
    ("build.floorplan.ms", "ms"),
    ("build.route.ms", "ms"),
    ("graph.vertices", "count"),
    ("graph.edges", "count"),
    ("paths.ms", "ms"),
    ("paths.alloc_mw", "Mword"),
    ("paths.pairs", "count"),
    ("min_period.ms", "ms"),
    ("min_period.alloc_mw", "Mword"),
    ("constraints.ms", "ms"),
    ("constraints.count", "count"),
    ("constraints.period", "count"),
    ("constraints.bytes", "bytes"),
    ("constraints.alloc_mw", "Mword"),
    ("minarea.ms", "ms"),
    ("minarea.settles", "count"),
    ("lac.ms", "ms"),
    ("lac.rounds", "count"),
    ("lac.round_ms", "ms"),
    ("mcmf.settles", "count"),
    ("mcmf.pushes", "count"),
    ("mcmf.warm_ratio", "ratio"),
    ("second.ms", "ms"),
    ("second.count", "count"),
    ("serve.service_ms.p50", "ms"),
    ("serve.wait_ms.p50", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.miss_ms.p50", "ms"),
    ("trace_overhead_pct", "%"),
    ("uncovered.ms", "ms"),
]

# The ten Table-1 circuits, the serve workload's request universe.
CIRCUITS = ["s298", "s386", "s400", "s526", "s641",
            "s820", "s953", "s1196", "s1269", "s1423"]
# Timed serve requests, in whole blocks of the ten circuits, per second
# of --seconds: the phase is a fixed amount of work, sized so that
# set-up and the phase together take about --seconds on a 2-CPU host.
# Whole blocks keep every circuit's share of the mix exact.
SERVE_BLOCKS_PER_SECOND = 0.2

CHILD_TIMEOUT_S = 170

# Per-layer metrics of the serve workload that come from the in-process
# replay of its warm path (bench.exe replay); the serve.* ones come
# from the wire, the rest do not apply to a warm request.
REPLAY_LAYERS = ["minarea.ms", "minarea.settles", "lac.ms", "lac.rounds", "lac.round_ms",
                 "mcmf.settles", "mcmf.pushes", "mcmf.warm_ratio", "second.ms",
                 "second.count", "uncovered.ms"]


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    # Knobs that would change pool sizes, add checks or move GC
    # behaviour under the benchmark's feet.
    for var in ("LACR_DOMAINS", "LACR_SANITIZE", "OCAMLRUNPARAM"):
        env.pop(var, None)
    return env


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        raise BenchError("no dune-project at %s: the program's sources are missing" % ROOT)
    env = child_env()
    env["DUNE_CACHE"] = "disabled"  # keep every build output inside the checkout
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "perfbench/bench.exe", "bin/lacrd.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=850)
    if proc.returncode != 0:
        raise BenchError("build failed:\n" + proc.stdout)


def percentile(p, xs):
    """Linear interpolation between closest ranks (as bench.exe)."""
    if not xs:
        return 0.0
    a = sorted(xs)
    pos = p / 100.0 * (len(a) - 1)
    lo = int(pos)
    hi = min(len(a) - 1, lo + 1)
    return a[lo] + (pos - lo) * (a[hi] - a[lo])


def tail_percentile(n):
    """The highest usual percentile with at least ten samples beyond it."""
    best = "none"
    for p in (50, 75, 90, 95, 99):
        if n * (1 - p / 100.0) >= 10:
            best = "p%d" % p
    return best


def load_goldens():
    """Result bodies of single-shot plans under the default config."""
    bodies = {}
    with open(GOLDEN) as f:
        for line in f:
            circuit, body = line.rstrip("\n").split("\t")
            bodies[circuit] = body
    return bodies


# --------------------------------------------------------------------
# iscas: planned in-process by bench.exe


def run_bench_exe(args):
    """Run bench.exe, relay its report lines, return its result."""
    proc = subprocess.run(
        [BENCH_EXE] + args,
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("bench.exe %s failed (exit %d):\n%s%s"
                         % (args[0], proc.returncode, proc.stdout, proc.stderr))
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def host_slowdown(rounds=1):
    """How much slower than the reference speed the host runs now: the
    median over [rounds] rounds of bench.exe's reference kernels."""
    proc = subprocess.run(
        [BENCH_EXE, "calibrate", "--rounds", str(rounds)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("bench.exe calibrate failed (exit %d):\n%s%s"
                         % (proc.returncode, proc.stdout, proc.stderr))
    return json.loads(lines[-1])["slowdown"]


# --------------------------------------------------------------------
# serve: lacrd over its wire protocol


def raw_member(line, key):
    """The raw JSON text of the object value of the first "key" member
    of a response line, byte for byte as the daemon wrote it."""
    marker = '"%s":' % key
    i = line.find(marker)
    if i < 0:
        return None
    j = i + len(marker)
    while j < len(line) and line[j] == " ":
        j += 1
    depth, k, in_str = 0, j, False
    while k < len(line):
        c = line[k]
        if in_str:
            if c == "\\":
                k += 2
                continue
            if c == '"':
                in_str = False
        elif c == '"':
            in_str = True
        elif c in "{[":
            depth += 1
        elif c in "}]":
            depth -= 1
            if depth == 0:
                return line[j:k + 1]
        k += 1
    return None


class Daemon:
    """lacrd with 2 workers and 1 planning domain, on a loopback port."""

    def __init__(self):
        self.port = None
        self.proc = subprocess.Popen(
            [LACRD_EXE, "--tcp", "0", "--workers", "2", "--domains", "1"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        line = self.proc.stdout.readline()
        marker = "tcp:127.0.0.1:"
        if marker not in line:
            self.stop()
            raise BenchError("lacrd did not start: %r" % line)
        self.port = int(line.split(marker)[1].split()[0])

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None and self.port is not None:
            try:
                conn = Conn(self.port)
                conn.call({"id": 0, "method": "shutdown"})
                conn.close()
            except OSError:
                pass
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Conn:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=CHILD_TIMEOUT_S)
        self.rfile = self.sock.makefile("r", encoding="utf-8", newline="\n")

    def call(self, request):
        self.sock.sendall((json.dumps(request) + "\n").encode())
        return self.rfile.readline()

    def close(self):
        self.rfile.close()
        self.sock.close()


def schedule(seed, n):
    """A seeded uniform draw over CIRCUITS, in blocks that are each a
    permutation of all ten, so every run sees the same mix."""
    rng = random.Random(seed)
    order = []
    while len(order) < n:
        block = list(CIRCUITS)
        rng.shuffle(block)
        order.extend(block)
    return order[:n]


def closed_loop(conns, circuits, metrics_echo, goldens, calibrate=False):
    """Send every request of [circuits] over [conns], each connection
    sending its next request once the previous reply arrived.  Returns
    one record per request.

    With [calibrate], a connection measures the host's slowdown before
    its first request and after every reply, before it sends the next
    request; a record's "slowdown" is the mean of the measurements just
    before and just after its request.  The measurement runs on the
    CPU that the finished request leaves idle."""
    records = [None] * len(circuits)
    cursor = [0]
    lock = threading.Lock()
    errors = []

    def client(conn):
        slow = host_slowdown() if calibrate else 1.0
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(circuits):
                return
            params = {"circuit": circuits[i]}
            if metrics_echo:
                params["metrics"] = True
            t0 = time.perf_counter()
            try:
                line = conn.call({"id": i + 1, "method": "plan", "params": params})
            except OSError as e:
                line = "connection failed: %s" % e
            latency_ms = (time.perf_counter() - t0) * 1000.0
            records[i] = check_response(circuits[i], line, latency_ms, goldens)
            before, slow = slow, host_slowdown() if calibrate else 1.0
            records[i]["slowdown"] = (before + slow) / 2.0

    def guarded(conn):
        try:
            client(conn)
        except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as e:
            errors.append(e)

    threads = [threading.Thread(target=guarded, args=(c,)) for c in conns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise BenchError("closed loop failed: %s" % errors[0])
    return records


def check_response(circuit, line, latency_ms, goldens):
    rec = {"circuit": circuit, "latency_ms": latency_ms, "error": None}
    try:
        doc = json.loads(line)
    except ValueError:
        rec["error"] = "unparseable response %r" % line[:200]
        return rec
    ok = doc.get("ok")
    if ok is None:
        rec["error"] = "error response %s" % json.dumps(doc.get("error"))
        return rec
    rec["cache"] = ok.get("cache")
    rec["elapsed_ms"] = ok.get("elapsed_us", 0) / 1000.0
    rec["counters"] = ok.get("metrics", {}).get("counters", {})
    rec["result"] = ok.get("result")
    if raw_member(line, "result") != goldens.get(circuit):
        rec["error"] = "result body differs from the single-shot plan"
    return rec


def table1_quality(results):
    """violations_removed_pct and n_f_total over the ten plans."""
    decreases, n_f = [], 0
    for res in results.values():
        ma, lac = res["minarea"]["n_foa"], res["lac"]["n_foa"]
        if ma > 0:
            decreases.append(100.0 * (ma - lac) / ma)
        n_f += res["lac"]["n_f"]
    return (sum(decreases) / len(decreases) if decreases else 100.0), n_f


def run_serve(seed, seconds, trace):
    goldens = load_goldens()
    n_blocks = max(1, int(round(seconds * SERVE_BLOCKS_PER_SECOND)))
    n_timed = len(CIRCUITS) * n_blocks
    t0 = time.perf_counter()
    daemon = Daemon()
    try:
        conns = [Conn(daemon.port), Conn(daemon.port)]
        # Largest first, so the two biggest cold plans start together on
        # every run and the daemon's peak memory depends less on timing.
        warm = closed_loop(conns, CIRCUITS[::-1], False, goldens)
        order = schedule(seed, n_timed)
        setup_s = time.perf_counter() - t0
        # The host's slowdown against the reference speed (see
        # RECORD.md), with the daemon idle.
        setup_slowdown = host_slowdown(rounds=3)
        if trace:
            # The first third of the schedule twice: plain, then with
            # the per-request metric echo on.  The difference is the
            # cost of tracing a request.
            part = order[:len(CIRCUITS) * max(1, n_blocks // 3)]
            p0 = time.perf_counter()
            plain = closed_loop(conns, part, False, goldens)
            plain_wall = time.perf_counter() - p0
            p0 = time.perf_counter()
            timed = closed_loop(conns, part, True, goldens)
            wall = time.perf_counter() - p0
        else:
            p0 = time.perf_counter()
            timed = closed_loop(conns, order, False, goldens, calibrate=True)
            wall = time.perf_counter() - p0
            plain = []
        rss_mb = daemon.vm_hwm_mb()
        for c in conns:
            c.close()
    finally:
        daemon.stop()

    records = warm + plain + timed
    failures = ["%s: %s" % (r["circuit"], r["error"]) for r in records if r["error"]]
    for f in failures:
        print("FAIL " + f)
    good = [r for r in timed if not r["error"]]
    lat = [r["latency_ms"] for r in good]
    hits = sum(1 for r in good if r["cache"] == "hit")
    misses = [r["latency_ms"] for r in warm + plain + timed
              if not r["error"] and r["cache"] == "miss"]
    print("summary (measured): %d timed requests in %.2f s (%.3f requests/s), %d cache hits,"
          " %d misses; request latency over %d samples p50 %.1f ms, p90 %.1f ms (highest"
          " percentile with >= 10 samples beyond: %s); failed_frac %.4f"
          % (len(timed), wall, len(good) / wall, hits, len(good) - hits, len(lat),
             percentile(50, lat), percentile(90, lat), tail_percentile(len(lat)),
             len(failures) / float(len(records))))
    result = {"correct": not failures, "attempted": len(records), "failed": len(failures)}
    if not trace:
        # Each circuit's median client-observed latency over the timed
        # phase, at the reference speed; the percentiles are over these
        # ten figures, as in bench.ml.
        scaled = {}
        for r in good:
            scaled.setdefault(r["circuit"], []).append(r["latency_ms"] / r["slowdown"])
        per_circuit = [percentile(50, scaled[c]) for c in CIRCUITS if c in scaled]
        print("median request latencies at the reference speed:"
              + "".join(" %s %.1f ms" % (c, percentile(50, scaled[c]))
                        for c in CIRCUITS if c in scaled)
              + "; median host slowdown %.3f" % percentile(50, [r["slowdown"] for r in timed]))
        removed, n_f = table1_quality({r["circuit"]: r["result"] for r in warm if not r["error"]})
        wall_s = sum(per_circuit) / 1000.0
        result["metrics"] = {
            "setup_s": setup_s / setup_slowdown,
            "wall_s": wall_s,
            "peak_rss_mb": rss_mb,
            "latency_ms.p50": percentile(50, per_circuit),
            "latency_ms.p90": percentile(90, per_circuit),
            # Little's law for a closed loop: connections over the mean
            # latency of one block.
            "throughput_rps": len(conns) * len(per_circuit) / wall_s,
            "violations_removed_pct": removed,
            "n_f_total": n_f,
        }
        return result

    # The daemon's layer times are not visible on the wire: replay the
    # traced requests' warm path in-process, one at a time, for them.
    replay = run_bench_exe(["replay", "--circuits", ",".join(part)])
    result["attempted"] += replay["attempted"]
    result["failed"] += replay["failed"]
    result["correct"] = result["correct"] and replay["correct"]
    echo = {name: sum(r["counters"].get(name, 0) for r in good)
            for name in ("lac.rounds", "mcmf.solves", "mcmf.settles", "mcmf.pushes",
                         "mcmf.warm_starts")}
    print("daemon counter echoes over the traced requests: "
          + ", ".join("%s %d" % kv for kv in sorted(echo.items())))
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update({name: replay["metrics"][name] for name in REPLAY_LAYERS})
    metrics.update({
        "serve.service_ms.p50": percentile(50, [r["elapsed_ms"] for r in good]),
        "serve.wait_ms.p50": percentile(50, [r["latency_ms"] - r["elapsed_ms"] for r in good]),
        "serve.cache.hit_ratio": hits / float(max(1, len(good))),
        "serve.miss_ms.p50": percentile(50, misses),
        "trace_overhead_pct": 100.0 * (wall - plain_wall) / plain_wall,
    })
    result["metrics"] = metrics
    return result


# --------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["iscas", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        build()
        if args.workload == "serve":
            result = run_serve(args.seed, args.seconds, args.trace)
        else:
            # The seed drives only the serve schedule (see bench.ml).
            result = run_bench_exe(
                ["layers"] if args.trace else ["run", "--seconds", str(args.seconds)])
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2
    table = PER_LAYER if args.trace else END_TO_END
    values = result["metrics"]
    missing = [name for name, _ in table if name not in values]
    if missing:
        sys.stderr.write("perfbench: metrics missing from the run: %s\n" % ", ".join(missing))
        return 2
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in table}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
