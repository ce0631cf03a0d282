#!/usr/bin/env python3
"""The benchmark's own test, at reduced n (about a minute in all).

For every workload it runs perfbench twice with one seed and once with
another, untraced, plus one traced run, and checks that:

  * every run passes its oracle checks (failed == 0, exit code 0);
  * the two same-seed runs agree exactly on the whole context record
    (element count, cell size, index bytes, relayouts, migrations, join
    pairs, QueryCounters totals, sample counts) and on
    index_bytes_per_elem, so the amount of work cannot vary between runs;
  * a different seed gives a different dataset;
  * the traced run does the same work (its exact per-layer counts match
    the untraced run's context);
  * the restated registry cell-size rule still matches MakeIndex("memgrid");
  * every metric BENCHMARK.json names is printed, in its unit.

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (workload, n, steps or windows)
CASES = [("sim-plasticity", 20000, 24), ("sim-synapse", 20000, 24),
         ("serve-zipf", 20000, 300)]


def run(workload, seed, n, units, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--n", str(n), "--units", str(units)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise AssertionError("%s seed %d trace %d: exit %d\n%s" % (
            workload, seed, trace, proc.returncode, proc.stdout))
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def check(cond, what, failures):
    print("%s %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        failures.append(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for workload, n, units in CASES:
        ctx_a, res_a = run(workload, 7, n, units)
        ctx_b, res_b = run(workload, 7, n, units)
        ctx_c, _ = run(workload, 8, n, units)
        ctx_t, res_t = run(workload, 7, n, units, trace=1)
        for res in (res_a, res_b, res_t):
            check(res["correct"] and res["failed"] == 0 and
                  res["attempted"] > 0, "%s: oracle checks pass" % workload,
                  failures)
        check(ctx_a == ctx_b, "%s: same seed, identical context" % workload,
              failures)
        if ctx_a != ctx_b:
            for key in ctx_a:
                if ctx_a.get(key) != ctx_b.get(key):
                    print("     %s: %r vs %r" % (key, ctx_a[key],
                                                 ctx_b.get(key)))
        check(res_a["metrics"]["index_bytes_per_elem"] ==
              res_b["metrics"]["index_bytes_per_elem"],
              "%s: same seed, identical index_bytes_per_elem" % workload,
              failures)
        check(ctx_a["cell_size"] != ctx_c["cell_size"] or
              ctx_a["index_bytes_end"] != ctx_c["index_bytes_end"],
              "%s: another seed, another dataset" % workload, failures)
        layer = res_t["metrics"]
        check(layer["core.relayouts"]["value"] == ctx_a["relayouts"] and
              layer["core.migrations"]["value"] == ctx_a["migrations"] and
              layer["join.pairs"]["value"] == ctx_a["join_pairs"],
              "%s: traced run does the same work" % workload, failures)
        check(ctx_a["registry_parity"] is True,
              "%s: cell rule matches MakeIndex(\"memgrid\")" % workload,
              failures)
        for group, res in (("end_to_end", res_a), ("per_layer", res_t)):
            check(all(res["metrics"].get(m["name"], {}).get("unit") ==
                      m["unit"] for m in bench[group]) and
                  len(res["metrics"]) == len(bench[group]),
                  "%s: prints every %s metric" % (workload, group), failures)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
