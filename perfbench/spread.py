#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as acceptance reads it.

Runs perfbench/run.py once per seed on each named workload (untraced) and
prints, per metric, the median and the quartile distance
(statistics.quantiles(values, n=4): q3 - q1) as a share of the median,
next to the metric's bound from BENCHMARK.json. Exits nonzero if a run
fails or a spread other than setup_s exceeds its bound.

    python3 perfbench/spread.py --seeds 1-10 [--workload sim-plasticity ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    ok = True
    for workload in args.workload or names:
        values = {}
        for seed in seed_list(args.seeds):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print("%s seed %d failed (exit %d)" % (workload, seed,
                                                      proc.returncode))
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d (%.0f s): %s" % (
                workload, seed, time.monotonic() - start, " ".join(
                    "%s=%.6g" % (k, m["value"])
                    for k, m in result["metrics"].items())), flush=True)
        for metric in bench["end_to_end"]:
            vals = values.get(metric["name"], [])
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if metric["name"] != "setup_s" and spread > metric["bound"]:
                flag = "  OVER BOUND"
                ok = False
            elif spread > metric["bound"] / 3:
                flag = "  (over a third of the bound)"
            print("%-14s %-22s median %-12.6g spread %.4f bound %.2f%s" % (
                workload, metric["name"], med, spread, metric["bound"], flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
