#!/usr/bin/env python3
"""Run each workload repeatedly and print every end-to-end metric's
spread against its bound from BENCHMARK.json.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
                                [--workloads keys,bulk,mixed]

Run from the repository root. Each run uses its own --seed. The spread
is the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median; a metric
is steady when its spread stays below a third of its bound. setup_s is
reported but held to no spread bound. The share of failed operations
must be the same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        shares = set()
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                               text=True)
            if r.returncode != 0:
                print("%s seed %d failed:\n%s" % (workload, seed,
                                                  r.stderr[-2000:]))
                return 1
            res = json.loads(r.stdout.strip().splitlines()[-1])
            shares.add(res["failed"] / res["attempted"])
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (n, v[-1]) for n, v in values.items())),
                flush=True)
        print("\n%-8s %-24s %12s %8s %8s %s" %
              ("workload", "metric", "median", "spread", "bound", ""))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            print("%-8s %-24s %12.5g %8.4f %8.3f %s" %
                  (workload, name, med, spread, bounds[name],
                   "ok" if ok else "UNSTEADY"))
        print("failed share per run: %s\n" % sorted(shares))
        steady &= len(shares) == 1
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
