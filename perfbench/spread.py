#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

    python3 perfbench/spread.py --workload warm_call --runs 10 [--seed 1]

Runs one workload --runs times untraced, each with another seed, and
prints for each end-to-end metric its median and the distance between its
first and third quartiles (statistics.quantiles(values, n=4)) as a share of
the median, beside the metric's bound from BENCHMARK.json. A spread above a
third of its bound is flagged; setup_s is listed but not judged.
"""
import argparse
import json
import os
import statistics
import sys

import run


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=run.WORKLOADS, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    binary = run.build()
    values = {}
    for i in range(args.runs):
        rc, result = run.run_once(binary, args.workload, args.seed + i,
                                  seconds, 0)
        if result is None or rc != 0 or not result["correct"]:
            print(f"run {i} failed (exit {rc})")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    steady = True
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        vals = values[name]
        median = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / median if median else float("inf")
        judged = name != "setup_s"
        ok = not judged or spread < bound / 3
        steady = steady and ok
        print(f"{'ok  ' if ok else 'WIDE'} {name:<20} median {median:>14.3f} "
              f"spread {spread:7.4f} bound {bound:.2f} "
              f"(limit {bound / 3:.4f}{'' if judged else ', not judged'})")
    print(json.dumps({k: v for k, v in values.items()}))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
