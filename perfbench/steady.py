#!/usr/bin/env python3
"""Steadiness check: runs each workload k times and reports every metric's
median, quartiles and spread ((q3 - q1) / median) against its bound.

usage (from the repository root):
  python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seed-base 100]
                              [--seconds S] [--trace]

Flags any end-to-end metric whose spread exceeds a tenth (setup_s is
reported but not flagged) and any run whose job had more tasks than this
machine has CPUs. Exits non-zero if a run failed or anything was flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPREAD_FLAG = 0.10


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, None
    info = None
    for line in lines:
        if line.startswith("evobench-info "):
            info = json.loads(line[len("evobench-info "):])
    return json.loads(lines[-1]), info


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    nproc = os.cpu_count() or 1
    bad = False

    for workload in workloads:
        values = {}
        units = {}
        for k in range(args.runs):
            seed = args.seed_base + k
            result, info = run_once(workload, seed, seconds, args.trace)
            if result is None or not result.get("correct"):
                print("%s seed %d: run FAILED" % (workload, seed))
                bad = True
                continue
            if info is not None and info.get("tasks", 0) > nproc:
                print("%s seed %d: %d tasks > nproc %d" %
                      (workload, seed, info["tasks"], nproc))
                bad = True
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print("%s seed %d: ok (%s)" % (
                workload, seed, ", ".join("%s=%.4g" % (n, m["value"])
                                          for n, m in result["metrics"].items()
                                          if n in bounds)), flush=True)
        print("\n%s: %d runs" % (workload, len(next(iter(values.values()), []))))
        print("  %-34s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > SPREAD_FLAG:
                flag = "FLAG"
                bad = True
            print("  %-34s %12.5g %12.5g %12.5g %8.3f %6s %s" %
                  (name + " [" + units[name] + "]", med, q1, q3, spread,
                   "" if bound is None else "%.2f" % bound, flag))
        print(flush=True)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
