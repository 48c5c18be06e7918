"""Steadiness check: two sets of ten runs of the same code, compared.

    python3 hfbench/steady.py [--first-seed N]

Run it from the root of the checkout.  The workloads and the run length
come from BENCHMARK.json.  Each run is one
`hfbench/run.py --workload W --seed N --seconds run_seconds` process with
its own seed (N + 1000 * set + run); the workloads take turns inside a
set, so that a slow spell of the machine falls on all of them.  For every
workload and metric it prints, per set, the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median, then how
much the second set's median is worse than the first one's, against the
bound in BENCHMARK.json.  It also prints the share of failed operations
per set.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS, SETS = 10, 2


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=200)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n"
                           f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--first-seed", type=int, default=1000)
    args = p.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]

    results = {w: [[] for _ in range(SETS)] for w in names}
    for s in range(SETS):
        for i in range(RUNS):
            for w in names:
                seed = args.first_seed + 1000 * s + i
                res = one_run(w, seed, seconds)
                results[w][s].append(res)
                vals = " ".join(f"{k}={v['value']:.6g}"
                                for k, v in res["metrics"].items())
                print(f"set {s} run {i} {w} seed {seed}: failed "
                      f"{res['failed']}/{res['attempted']} {vals}",
                      file=sys.stderr, flush=True)

    worst = 0.0
    for w in names:
        print(f"\n{w}")
        for s in range(SETS):
            runs = results[w][s]
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            correct = all(r["correct"] for r in runs)
            print(f"  set {s}: failed {failed}/{attempted}, correct {correct}")
        for m in bench["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            bound = m["bound"]
            line = f"  {name:38s}"
            meds = []
            for s in range(SETS):
                q1, med, q3 = quartiles(
                    [r["metrics"][name]["value"] for r in results[w][s]])
                spread = (q3 - q1) / med if med else 0.0
                meds.append(med)
                line += (f" | set {s}: median {med:.6g} [{q1:.6g}, {q3:.6g}]"
                         f" spread {spread:.3f}")
                if name != "setup_s":
                    worst = max(worst, spread / bound)
            change = ((meds[1] - meds[0]) if lower
                      else (meds[0] - meds[1])) / meds[0] if meds[0] else 0.0
            line += f" | set 1 worse by {change:+.3f} (bound {bound})"
            print(line)
    print(f"\nlargest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
