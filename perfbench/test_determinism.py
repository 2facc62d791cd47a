#!/usr/bin/env python3
"""The benchmark's own test: its counts are exact, its layers are wired.

    python3 perfbench/test_determinism.py

Run from the root of a netcalc source tree (it builds like run.py).
For each workload it makes two short traced runs with the same seed
and a fixed op count, and checks that

  - no op fails;
  - every count repeats exactly: ops attempted, the library counters
    read by name (pwl.*, incremental.*, pair.*, serve.*,
    propagation.*), GC words and major collections, the peak curve
    size, the frontier peaks, cone sizes and rejections;
  - every per-layer metric of BENCHMARK.json that the workload process
    measures is nonzero on at least one workload (a misspelt or dead
    metric would read 0 everywhere).

Exits 0 when all hold, 1 otherwise.
"""

import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# fixed op counts: a few seconds per workload
SHORT = {"paper-figs": 10, "deep-stream": 3, "admit-session": 150}
# derived by run.py from the untraced half of a traced run
FROM_RUN_PY = {"obs.overhead_ratio", "obs.traced_requests", "serve.read_p50_us",
               "serve.read_p90_us"}


def traced_short_run(workload, seed):
    cmd = [run.EXE, "--workload", workload, "--seed", str(seed),
           "--ops", str(SHORT[workload])]
    r = subprocess.run(cmd, env=run.pinned_env(True), stdout=subprocess.PIPE,
                       text=True, timeout=170, check=True)
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    run.build(time.monotonic() + 780)
    problems = []
    nonzero = set()
    for workload in run.WORKLOADS:
        a = traced_short_run(workload, 1)
        b = traced_short_run(workload, 1)
        for r in (a, b):
            if r["failed"] or r["attempted"] != SHORT[workload]:
                problems.append("%s: %d of %d ops failed" %
                                (workload, r["failed"], r["attempted"]))
        if a["counts"] != b["counts"]:
            diff = sorted(k for k in set(a["counts"]) | set(b["counts"])
                          if a["counts"].get(k) != b["counts"].get(k))
            problems.append("%s: counts differ between identical runs: %s" %
                            (workload, ", ".join(diff)))
        print("%s: %d counts, %s" % (workload, len(a["counts"]),
                                     "exact" if a["counts"] == b["counts"] else "DIFFER"))
        nonzero |= {k for k, v in a["layers"].items() if v != 0}
    for m in spec["per_layer"]:
        if m["name"] not in FROM_RUN_PY and m["name"] not in nonzero:
            problems.append("per-layer metric %s reads 0 on every workload" % m["name"])
    for p in problems:
        print("FAIL " + p)
    print("ok" if not problems else "%d problem(s)" % len(problems))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
