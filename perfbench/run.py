#!/usr/bin/env python3
"""Benchmark of the meshalloc simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload open-a2a-overload --seed 1 --seconds 30 --trace 0

It builds cmd/simrun, cmd/experiments and the in-process tracer into
.bench_build/, runs the paper scorecard (experiments -check, which must
report 9/9 claims), and then measures one workload for --seconds:

  --trace 0  runs the real simrun binary as a child process, one at a
             time, until the time is up, and reports the medians of the
             end-to-end metrics jobs_per_s, setup_s and peak_rss_mb.
  --trace 1  runs perfbench/tracer, which drives the same simulation one
             engine Step at a time, and reports the medians of its
             per-layer metrics.

Every simulated output is deterministic, so a run is correct only when
its NDJSON record stream (and, for simrun, its summary) hashes to the
reference committed in perfbench/refs.json. --seed selects where in
the committed reference seeds a run starts; --make-refs regenerates
the references.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs.json")

# simrun flags of each workload; --seed supplies -seed. perfbench/NOTES.md
# records why each was chosen and its measured regime.
WORKLOADS = {
    "open-a2a-overload": [
        "-mesh", "16x22", "-alloc", "hilbert/bestfit", "-pattern", "alltoall",
        "-sched", "fcfs", "-arrival", "poisson:900", "-jobs", "100000", "-stream",
    ],
    "closed-nbody-mc": [
        "-mesh", "16x22", "-alloc", "mc", "-pattern", "nbody", "-load", "0.6",
        "-jobs", "30000", "-stream",
    ],
    "open-nbody-3d-faults": [
        "-mesh", "8x8x8", "-alloc", "hilbert/bestfit", "-pattern", "nbody",
        "-sched", "easy", "-arrival", "poisson:300", "-mtbf", "exp:300000",
        "-mttr", "exp:10000", "-retry", "backoff:60,3600,4", "-jobs", "60000",
        "-stream",
    ],
}

# Benchmark seeds map onto simrun seeds 1..REF_SEEDS, each with a
# committed reference digest.
REF_SEEDS = 20

CHILD_TIMEOUT = 120


def sim_seed(seed):
    return (seed - 1) % REF_SEEDS + 1


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


class Tools:
    """The built binaries, under .bench_build/ in the checkout."""

    def __init__(self, root):
        self.root = root
        self.build = os.path.join(root, ".bench_build")
        self.bin = os.path.join(self.build, "bin")
        self.tmp = os.path.join(self.build, "tmp")
        self.simrun = os.path.join(self.bin, "simrun")
        self.experiments = os.path.join(self.bin, "experiments")
        self.tracer = os.path.join(self.bin, "tracer")

    def make(self):
        if not os.path.isfile(os.path.join(self.root, "go.mod")):
            fail("no go.mod in %s: run from the root of a meshalloc checkout" % self.root)
        os.makedirs(self.tmp, exist_ok=True)
        # Keep the Go build cache, temporary files and toolchain state
        # inside the checkout, and never reach for the network.
        env = dict(os.environ)
        env.update(
            GOCACHE=os.path.join(self.build, "gocache"),
            GOPATH=os.path.join(self.build, "gopath"),
            GOTMPDIR=self.tmp,
            XDG_CONFIG_HOME=os.path.join(self.build, "config"),
            GOTOOLCHAIN="local",
            GOPROXY="off",
            GOFLAGS="-mod=readonly",
        )
        steps = [
            (self.root, ["go", "build", "-o", self.simrun, "./cmd/simrun"]),
            (self.root, ["go", "build", "-o", self.experiments, "./cmd/experiments"]),
            (HERE, ["go", "build", "-o", self.tracer, "./tracer"]),
        ]
        for cwd, cmd in steps:
            p = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
            if p.returncode != 0:
                fail("build failed: %s\n%s" % (" ".join(cmd), p.stderr))


def paper_check(tools):
    """The model has no numeric hardware reference; its correctness gate
    against the paper is the scorecard of the paper's claims."""
    p = subprocess.run([tools.experiments, "-check"], capture_output=True,
                       text=True, timeout=CHILD_TIMEOUT)
    if p.returncode != 0 or "9/9 claims reproduced" not in p.stdout:
        fail("experiments -check did not reproduce 9/9 claims:\n" + p.stdout + p.stderr)


def run_simrun(tools, args):
    """One simrun child: hash its NDJSON stdout and summary, and time it
    from exec to the first stdout byte and to exit."""
    errpath = os.path.join(tools.tmp, "simrun.err")
    with open(errpath, "wb") as errf:
        t0 = time.perf_counter()
        p = subprocess.Popen([tools.simrun] + args, stdout=subprocess.PIPE,
                             stderr=errf, bufsize=0)
        first = None
        h = hashlib.sha256()
        fd = p.stdout.fileno()
        while True:
            b = os.read(fd, 1 << 16)
            if not b:
                break
            if first is None:
                first = time.perf_counter()
            h.update(b)
        _, status, ru = os.wait4(p.pid, 0)
        t1 = time.perf_counter()
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
    with open(errpath, "rb") as f:
        summary = f.read()
    m = re.search(rb"jobs (\d+)", summary)
    return {
        "rc": p.returncode,
        "ndjson_sha256": h.hexdigest(),
        "summary_sha256": hashlib.sha256(summary).hexdigest(),
        "jobs": int(m.group(1)) if m else 0,
        "wall_s": t1 - t0,
        "setup_s": (first if first is not None else t1) - t0,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "stderr": summary.decode(errors="replace"),
    }


def run_tracer(tools, args):
    p = subprocess.run([tools.tracer] + args, capture_output=True, text=True,
                       timeout=CHILD_TIMEOUT)
    if p.returncode != 0:
        print(p.stderr, file=sys.stderr)
        return None
    return json.loads(p.stdout)


def measure_untraced(tools, workload, seed, refs, seconds):
    """Child i runs the reference seed after seed+i-1's, so each run
    measures a window of inputs and the median is steady across seeds."""
    runs, failed = [], 0
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        s = sim_seed(seed + len(runs))
        ref = refs[str(s)]
        r = run_simrun(tools, WORKLOADS[workload] + ["-seed", str(s)])
        ok = (r["rc"] == 0 and r["ndjson_sha256"] == ref["ndjson_sha256"]
              and r["summary_sha256"] == ref["summary_sha256"])
        if not ok:
            failed += 1
            print("perfbench: simrun -seed %d output differs from the reference:\n%s"
                  % (s, r["stderr"]), file=sys.stderr)
        runs.append(r)
    med = lambda k: statistics.median(x[k] for x in runs)
    metrics = {
        "jobs_per_s": statistics.median(x["jobs"] / x["wall_s"] for x in runs),
        "setup_s": med("setup_s"),
        "peak_rss_mb": med("peak_rss_mb"),
    }
    return len(runs), failed, metrics


def measure_traced(tools, workload, seed, refs, seconds):
    """Repeats the traced run of one reference seed, so counts are exact
    and timings are medians over the repeats."""
    s = sim_seed(seed)
    ref = refs[str(s)]
    args = WORKLOADS[workload] + ["-seed", str(s)]
    outs, attempted, failed = [], 0, 0
    deadline = time.perf_counter() + seconds
    while not attempted or time.perf_counter() < deadline:
        attempted += 1
        r = run_tracer(tools, args)
        ok = (r is not None and r["plain_sha256"] == ref["ndjson_sha256"]
              and r["traced_sha256"] == ref["ndjson_sha256"]
              and r["jobs"] == ref["jobs"] and r["topo_mismatches"] == 0
              and r["metrics"]["alloc.replay_match"] == 1)
        if not ok:
            failed += 1
            print("perfbench: traced run of seed %d differs from the reference: %r"
                  % (s, r and {k: v for k, v in r.items() if k != "metrics"}), file=sys.stderr)
        if r is not None:
            outs.append(r["metrics"])
    metrics = {}
    for k in (outs[0] if outs else {}):
        metrics[k] = statistics.median(o[k] for o in outs)
    return attempted, failed, metrics


def make_refs(tools):
    refs = {}
    for name, args in WORKLOADS.items():
        refs[name] = {}
        for s in range(1, REF_SEEDS + 1):
            r = run_simrun(tools, args + ["-seed", str(s)])
            if r["rc"] != 0:
                fail("simrun failed on %s seed %d:\n%s" % (name, s, r["stderr"]))
            refs[name][str(s)] = {k: r[k] for k in ("ndjson_sha256", "summary_sha256", "jobs")}
            print(name, s, r["jobs"], "%.2fs" % r["wall_s"], file=sys.stderr)
    with open(REFS, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-refs", action="store_true",
                    help="regenerate perfbench/refs.json from this checkout's simrun")
    a = ap.parse_args()

    tools = Tools(os.getcwd())
    tools.make()
    if a.make_refs:
        make_refs(tools)
        return
    if a.workload is None:
        ap.error("--workload is required")
    with open(REFS) as f:
        refs = json.load(f)[a.workload]

    paper_check(tools)
    measure = measure_traced if a.trace else measure_untraced
    attempted, failed, metrics = measure(tools, a.workload, a.seed, refs, a.seconds)

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail("metrics not measured: " + ", ".join(missing))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
