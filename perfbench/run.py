#!/usr/bin/env python3
"""SimSpatial benchmark: build perfbench from source, run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <sim-plasticity|sim-synapse|serve-zipf>
                             --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (the library sources
plus the perfbench binary) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later calls rebuild
incrementally. The binary's output is passed through: a context line,
then the result line
{"correct", "attempted", "failed", "metrics"}. Traced runs also dump their
spans to <build dir>/traces/. Exits nonzero, without a result line, when
the sources are missing or the build fails, and with the binary's code
when a run fails its checks.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-plasticity", "sim-synapse", "serve-zipf")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure (once) and build; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "memgrid.h")):
        print("perfbench: no library sources (src/) in this checkout",
              file=sys.stderr)
        return None
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                print("perfbench: build failed (%s)" % " ".join(cmd),
                      file=sys.stderr)
                return None
    return os.path.join(out_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--n", type=int, help="element count (default: workload's)")
    ap.add_argument("--units", type=int,
                    help="steps/windows (default: derived from --seconds)")
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in (0, 600]")

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 2

    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace]
    if args.n is not None:
        cmd.append("--n=%d" % args.n)
    if args.units is not None:
        cmd.append("--units=%d" % args.units)
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append("--spans=" + os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed)))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
