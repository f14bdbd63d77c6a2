#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload NAME --seeds 1-10

Each seed is one untraced run of BENCHMARK.json's run_seconds, the only
setting its bounds apply to. For every metric of the summary line it
prints the median of the per-seed values and the distance between their first and third
quartiles (statistics.quantiles(values, n=4)) as a share of that
median, next to the bound BENCHMARK.json fixes for it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True).stdout
        summary = json.loads(out.strip().splitlines()[-1])
        if not summary["correct"]:
            print("seed %d: incorrect (%d of %d failed)"
                  % (seed, summary["failed"], summary["attempted"]))
        for name, m in summary["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (k, m["value"]) for k, m in summary["metrics"].items())),
            flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print("%-22s median %-12.5g spread %6.3f  bound %s%s"
              % (name, med, spread, bound, flag))


if __name__ == "__main__":
    sys.exit(main())
