#!/usr/bin/env python3
"""Repository benchmark: figure regeneration, a warm-store tcp-serve batch
and a multi-tenant stream replay, with a layer-attributed traced run.

    python3 tcpbench/run.py --workload figures|serve|stream --seed N \
        --seconds S --trace 0|1

It builds the shipped `all` and `tcp-serve` binaries and the in-process
helper (`tcpbench/`, a Cargo package of its own), then repeats set-up and
measured phase until `--seconds` is used up and reports the median of
each end-to-end metric. `--trace 1` runs one untraced repetition, then the
traced run, and reports the per-layer metrics. The last line of stdout is
one JSON object; the lines before it are for people. tcpbench/README.md
explains every workload and metric.

`--write-figure-digests` regenerates tcpbench/figures.digest, the expected
output of `all` at the benchmark's scale, after a change that is meant to
alter simulated results.
"""

import argparse
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, "work")
DIGESTS = os.path.join(BENCH, "figures.digest")
# Micro-ops per figure point (`TCP_REPRO_OPS`). At this scale Figure 13's
# 100k-op floor does not bind, so the job mix matches a full-scale run.
FIGURE_OPS = 200_000
# Worker threads for tcp-serve and the helper's in-process sweeps.
THREADS = max(1, min(2, os.cpu_count() or 1))


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def binary(name):
    return os.path.join(target_dir(), "release", name)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--quiet", "-p", "tcp-experiments",
         "--bin", "all", "--bin", "tcp-serve"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path",
         os.path.join(BENCH, "Cargo.toml")],
    ):
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True)


def helper(*args):
    """Runs one tcpbench command to completion; returns its stdout lines."""
    out = subprocess.run([binary("tcpbench"), *map(str, args)], cwd=ROOT,
                         stdout=subprocess.PIPE, check=True, text=True)
    return out.stdout.splitlines()


def timed_helper(*args):
    start = time.perf_counter()
    lines = helper(*args)
    return lines, time.perf_counter() - start


class Measured:
    """One measured process: wall time from spawn to exit, peak RSS, exit
    status and the arrival time of every stdout line."""

    def __init__(self, cmd, cwd, env=None):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            self.lines = []
            for line in proc.stdout:
                self.lines.append((time.perf_counter() - start, line.rstrip("\n")))
            self.stderr = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        self.wall_s = time.perf_counter() - start
        self.status = os.waitstatus_to_exitcode(status)
        proc.returncode = self.status
        self.rss_mib = usage.ru_maxrss / 1024.0
        if self.status != 0:
            sys.stderr.write(self.stderr)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def fnv1a64(text):
    h = 0xCBF29CE484222325
    for b in text.encode():
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def figure_blocks(lines):
    """Splits `all`'s stdout into (title, arrival, text): one block per
    table from its `== title ==` line, plus the final sweep-engine line."""
    blocks = []
    for at, line in lines:
        if line.startswith("== ") or line.startswith("sweep engine:"):
            blocks.append((line, at, [line]))
        elif blocks and not blocks[-1][0].startswith("sweep engine:"):
            blocks[-1][2].append(line)
    return [(title, at, "\n".join(body).rstrip("\n")) for title, at, body in blocks]


class Rep:
    """The end-to-end values and output checks of one measured repetition."""

    def __init__(self, run, latencies, records, replay_s, attempted, failed, ok):
        self.values = {
            "wall_s": run.wall_s,
            "peak_rss_mib": run.rss_mib,
            "req_p50_ms": 1e3 * percentile(latencies, 0.50),
            "req_p95_ms": 1e3 * percentile(latencies, 0.95),
            "records_per_s": records / replay_s,
        }
        self.run = run
        self.samples = len(latencies)
        self.attempted = attempted
        self.failed = failed
        self.ok = ok and run.status == 0


class Figures:
    """`all` at FIGURE_OPS; seedless, since the suite is the deliverable."""

    REPS_PER_SETUP = 1
    DIR = os.path.join(WORK, "figures")

    def __init__(self, seed):
        pass

    def setup(self):
        """A clean output directory, the expected tables, and the micro-ops
        `all` will simulate."""
        start = time.perf_counter()
        shutil.rmtree(self.DIR, ignore_errors=True)
        os.makedirs(self.DIR)
        with open(DIGESTS) as f:
            self.expected = {t: d for d, t in (l.rstrip("\n").split("\t", 1) for l in f)}
        self.sim_ops = json.loads(helper("figures-ops", "--ops", FIGURE_OPS)[-1])["sim_ops"]
        return time.perf_counter() - start

    def measure(self):
        run = run_all(self.DIR)
        got = {title: (at, text) for title, at, text in figure_blocks(run.lines)}
        failed = sum(1 for t, d in self.expected.items()
                     if t not in got or fnv1a64(got[t][1]) != d)
        failed += sum(1 for t in got if t not in self.expected)
        latencies = [at for at, _ in got.values()] or [run.wall_s]
        return Rep(run, latencies, self.sim_ops, run.wall_s, len(self.expected), failed, True)

    def trace(self, rep):
        out = helper("figures-trace", "--ops", FIGURE_OPS, "--untraced-wall",
                     rep.values["wall_s"], "--digests", DIGESTS)
        return json.loads(out[-1])


def run_all(cwd):
    return Measured([binary("all")], cwd=cwd, env=dict(os.environ, TCP_REPRO_OPS=str(FIGURE_OPS)))


def serve_fields(line):
    """The checked fields of one result line, in the reference's shape."""
    v = json.loads(line)
    if "error" in v:
        return (v.get("index"), "error", v["error"])
    bits = v.get("ipc_bits") or "%016x" % struct.unpack("<Q", struct.pack("<d", v["ipc"]))[0]
    return (v["index"], v["benchmark"], v["prefetcher"], v["cycles"], v["ops"], bits)


class Serve:
    """`tcp-serve` over a seeded 240-request batch and a warm store."""

    REPS_PER_SETUP = 2
    DIR = os.path.join(WORK, "serve")

    def __init__(self, seed):
        self.seed = seed
        self.expected = None

    def setup(self):
        """The request file, the warm store, and its copy for tcp-serve."""
        lines, setup_s = timed_helper("serve-setup", "--seed", self.seed, "--dir", self.DIR)
        self.mix = json.loads(lines[-1])
        self.store_used = False
        if self.expected is None:
            ref = helper("serve-reference", "--dir", self.DIR)
            self.expected = {f[0]: f for f in map(serve_fields, ref)}
        return setup_s

    def failures(self, lines):
        got = {}
        extra = 0
        for line in lines:
            fields = serve_fields(line)
            if fields[0] in got or fields[0] not in self.expected:
                extra += 1
            got[fields[0]] = fields
        return extra + sum(1 for i, e in self.expected.items() if got.get(i) != e)

    def measure(self):
        store = os.path.join(self.DIR, "store")
        if self.store_used:
            shutil.rmtree(store)
            os.makedirs(store)
            shutil.copy(os.path.join(self.DIR, "warm", "store.jsonl"), store)
        self.store_used = True
        run = Measured([binary("tcp-serve"), "--threads", str(THREADS), "--store", store,
                        os.path.join(self.DIR, "requests.jsonl")], cwd=ROOT)
        failed = self.failures([l for _, l in run.lines])
        mix = self.mix
        summary = "tcp-serve: %d requests, %d simulated, %d from store, %d from memo, 0 failed" % (
            mix["requests"], mix["simulated"], mix["store_hits"], mix["memo_hits"])
        ok = summary in run.stderr.splitlines()
        if not ok:
            sys.stderr.write("tcpbench: tcp-serve did not report %r\n" % summary)
        latencies = [at for at, _ in run.lines] or [run.wall_s]
        return Rep(run, latencies, mix["sim_ops"], run.wall_s, mix["requests"], failed, ok)

    def trace(self, rep):
        out = helper("serve-trace", "--dir", self.DIR, "--untraced-wall", rep.values["wall_s"])
        result = json.loads(out[-1])
        result["attempted"] += len(self.expected)
        result["failed"] += self.failures(out[:-1])
        return result


class Stream:
    """`TenantMux` over four seeded tenant traces."""

    REPS_PER_SETUP = 3
    DIR = os.path.join(WORK, "stream")

    def __init__(self, seed):
        self.seed = seed
        self.expected = None

    def setup(self):
        """The tenant trace files."""
        _, setup_s = timed_helper("stream-setup", "--seed", self.seed, "--dir", self.DIR)
        if self.expected is None:
            ref = helper("stream-reference", "--dir", self.DIR)
            self.expected = {v["tenant"]: v["outcome"] for v in map(json.loads, ref)}
        return setup_s

    def measure(self):
        run = Measured([binary("tcpbench"), "stream-run", "--dir", self.DIR], cwd=ROOT)
        tenants = [(at, json.loads(l)) for at, l in run.lines[:-1]]
        summary = json.loads(run.lines[-1][1]) if run.lines else {"records": 0, "mux_s": 1.0}
        run.mux_s = summary["mux_s"]
        got = {v["tenant"]: v["outcome"] for _, v in tenants}
        failed = sum(1 for t, o in self.expected.items() if got.get(t) != o)
        failed += sum(1 for t in got if t not in self.expected)
        latencies = [at for at, _ in tenants] or [run.wall_s]
        return Rep(run, latencies, summary["records"], run.mux_s, len(self.expected), failed, True)

    def trace(self, rep):
        out = helper("stream-trace", "--dir", self.DIR, "--untraced-wall", rep.values["wall_s"],
                     "--untraced-mux", rep.run.mux_s)
        return json.loads(out[-1])


WORKLOADS = {"figures": Figures, "serve": Serve, "stream": Stream}


def measure_for(workload, seconds):
    """Set-up followed by REPS_PER_SETUP measured repetitions, over and
    over, until the next repetition would overrun `seconds`."""
    setups, reps = [], []
    start = time.perf_counter()
    while True:
        setups.append(workload.setup())
        for _ in range(workload.REPS_PER_SETUP):
            began = time.perf_counter()
            reps.append(workload.measure())
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                return setups, reps


def write_figure_digests():
    build()
    shutil.rmtree(Figures.DIR, ignore_errors=True)
    os.makedirs(Figures.DIR)
    run = run_all(Figures.DIR)
    if run.status != 0:
        sys.exit("all failed")
    with open(DIGESTS, "w") as f:
        for title, _, text in figure_blocks(run.lines):
            f.write("%s\t%s\n" % (fnv1a64(text), title))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-figure-digests", action="store_true")
    args = ap.parse_args()
    if args.write_figure_digests:
        return write_figure_digests()
    if None in (args.workload, args.seed, args.seconds):
        ap.error("--workload, --seed and --seconds are required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    workload = WORKLOADS[args.workload](args.seed)

    if args.trace:
        workload.setup()
        rep = workload.measure()
        result = workload.trace(rep)
        attempted = rep.attempted + result["attempted"]
        failed = rep.failed + result["failed"]
        ok = rep.ok
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unknown = set(result["metrics"]) - set(units)
        if unknown:
            raise SystemExit("tcpbench: metrics missing from BENCHMARK.json: %s" % sorted(unknown))
        # A layer the workload never enters reports 0 work and 0 time.
        values = {name: result["metrics"].get(name, 0.0) for name in units}
        note = "traced run"
    else:
        setups, reps = measure_for(workload, args.seconds)
        attempted = sum(r.attempted for r in reps)
        failed = sum(r.failed for r in reps)
        ok = all(r.ok for r in reps)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {name: statistics.median(r.values[name] for r in reps)
                  for name in units if name != "setup_s"}
        values["setup_s"] = statistics.median(setups)
        note = "median of %d reps after %d set-ups; %d latency samples per rep" % (
            len(reps), len(setups), reps[0].samples)
        for i, r in enumerate(reps):
            print("rep %d: %s" % (i, " ".join("%s=%.6g" % kv for kv in r.values.items())))
        print("set-ups: %s" % " ".join("%.6g" % s for s in setups))

    print("%s (%s): seed %d, %d worker threads" % (args.workload, note, args.seed, THREADS))
    for name, value in values.items():
        print("  %-34s %14.6g %s" % (name, value, units[name]))
    print("  %-34s %14.6g ratio (%d of %d operations)" % (
        "failed_frac", failed / max(attempted, 1), failed, attempted))
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except subprocess.CalledProcessError as e:
        sys.exit("tcpbench: %s exited with %d" % (" ".join(map(str, e.cmd)), e.returncode))
