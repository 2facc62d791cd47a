#!/usr/bin/env python3
"""Run one netcalc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a netcalc source tree.  It builds
perfbench/workload.exe from source with dune (into .bench_build), runs
the workload in fresh processes with a pinned environment, and prints
one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, from
untraced processes.  Their times are scaled to a reference host speed:
each process also times a fixed computation that uses no netcalc code
(workload.ml, Reference) between its ops, and every time it reports is
multiplied by REFERENCE_MS over that computation's median time in the
same process.  A slow stretch of the host slows both and cancels out;
a change to netcalc moves only the ops.  The raw times are in the
line before the result.

--trace 1 reports the per-layer metrics: half the time runs untraced,
half with NETCALC_OBS=1 (the library's counters and spans on, plus the
workload's own spans around each public call, written to
.bench_build/perfbench/).  Per-layer times are raw.  See
perfbench/NOTES.md for what each workload and metric is for.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("paper-figs", "deep-stream", "admit-session")
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "workload.exe")
# set-up is timed in this many set-up-only processes plus the measuring
# one; setup_s is the median.
SETUP_PROCESSES = 4
# a run must end within 180 s, or 900 s when it also builds the program
RUN_BUDGET_S = 170
# The host reference computation's median time, in ms, on the machine
# the benchmark was defined on (NOTES.md).  Times are reported as if the
# host ran at that speed.
REFERENCE_MS = 10.0


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def pinned_env(traced):
    env = dict(os.environ)
    for var in ("NETCALC_OBS", "NETCALC_CURVE_BACKEND", "NETCALC_JOBS", "OCAMLRUNPARAM"):
        env.pop(var, None)
    # jobs 2 on a 2-vCPU machine measures the scheduler more than the
    # program (NOTES.md), so every workload runs on one domain.
    env["NETCALC_JOBS"] = "1"
    if traced:
        env["NETCALC_OBS"] = "1"
    return env


def build(deadline):
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "-j", "2",
           "perfbench/workload.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=max(1, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(3, "build failed: %s" % e)
    if r.returncode != 0:
        fail(3, "build failed (dune exit %d)" % r.returncode)


def workload(args, deadline, traced=False, extra=()):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed)] + list(extra)
    try:
        r = subprocess.run(cmd, env=pinned_env(traced), stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=max(1, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(4, "workload process failed: %s" % e)
    if r.returncode != 0:
        fail(4, "workload process exited %d" % r.returncode)
    try:
        return json.loads(r.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail(4, "workload process printed no result")


def median_prefix(a, b):
    """Medians of two op-latency series over their common prefix: both
    processes ran the same seeded op sequence."""
    k = min(len(a), len(b))
    return statistics.median(a[:k]), statistics.median(b[:k])


def host_scale(samples):
    """REFERENCE_MS over the median reference time: the factor that
    turns times taken beside these samples into reference-host times."""
    return REFERENCE_MS / statistics.median(samples)


def untraced_run(args, deadline):
    setup_runs = [workload(args, deadline, extra=["--setup-only", "--reference"])
                  for _ in range(SETUP_PROCESSES)]
    r = workload(args, deadline, extra=["--seconds", str(args.seconds), "--reference"])
    setup_runs.append(r)
    # a set-up is scaled by the reference runs right after it, the timed
    # loop by those between its ops
    setups = [s["setup_s"] * host_scale(s["setup_reference_ms"]) for s in setup_runs]
    scale = host_scale(r["reference_ms"])
    metrics = {
        "setup_s": statistics.median(setups),
        "work_per_s": r["work"] / (r["busy_s"] * scale),
        "op_p50_ms": r["op_p50_ms"] * scale,
        "op_p90_ms": r["op_p90_ms"] * scale,
        "peak_rss_mb": r["peak_rss_kb"] / 1024.0,
    }
    raw = {
        "setup_s": statistics.median(s["setup_s"] for s in setup_runs),
        "work_per_s": r["work"] / r["busy_s"],
        "op_p50_ms": r["op_p50_ms"],
        "op_p90_ms": r["op_p90_ms"],
    }
    info = {"raw": raw, "host_scale": scale,
            "setup_host_scales": [host_scale(s["setup_reference_ms"]) for s in setup_runs],
            "setup_s_samples": setups, "op_samples": r["op_samples"],
            "peak_rss_at_ops": r["peak_rss_at_ops"],
            "peak_rss_end_mb": r["peak_rss_end_kb"] / 1024.0,
            "reference_samples": len(r["reference_ms"]),
            "requests": r["attempted"], "check_s": r["check_s"], "env": r["env"]}
    return r["attempted"], r["failed"], metrics, info


def traced_run(args, deadline):
    half = str(max(1.0, args.seconds / 2.0))
    os.makedirs(os.path.join(BUILD_DIR, "perfbench"), exist_ok=True)
    trace_file = os.path.join(BUILD_DIR, "perfbench",
                              "%s-seed%d.trace.json" % (args.workload, args.seed))
    plain = workload(args, deadline, extra=["--seconds", half])
    tr = workload(args, deadline, traced=True,
                  extra=["--seconds", half, "--trace-out", trace_file])
    metrics = dict(tr["layers"])
    untraced_med, traced_med = median_prefix(plain["op_ms"], tr["op_ms"])
    metrics["obs.overhead_ratio"] = traced_med / untraced_med
    # query latency, from the untraced half
    metrics["serve.read_p50_us"] = plain["read_p50_ms"] * 1e3
    metrics["serve.read_p90_us"] = plain["read_p90_ms"] * 1e3
    metrics["obs.traced_requests"] = float(tr["attempted"])
    info = {"trace_file": trace_file, "counts": tr["counts"],
            "absent_counters": tr["absent_counters"], "env": tr["env"]}
    return (plain["attempted"] + tr["attempted"], plain["failed"] + tr["failed"],
            metrics, info)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not args.seconds > 0:
        fail(2, "--seconds must be positive")
    deadline = time.monotonic() + RUN_BUDGET_S

    # The benchmark builds the program it measures from the source tree
    # it sits in; without one there is nothing to measure.
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(need):
            fail(2, "no %s here: run from the root of a netcalc source tree" % need)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build(time.monotonic() + 780)
    # a first run in a fresh tree spends most of its time building
    deadline = max(deadline, time.monotonic() + 100)

    run = traced_run if args.trace else untraced_run
    attempted, failed, measured, info = run(args, deadline)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in measured:
            if not args.trace:
                fail(5, "metric %s was not measured" % m["name"])
            # a layer this workload does not exercise did no work
            measured[m["name"]] = 0.0
        v = float(measured[m["name"]])
        if not math.isfinite(v):
            fail(5, "metric %s is not finite" % m["name"])
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
