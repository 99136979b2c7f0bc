#!/usr/bin/env python3
"""The benchmark's own test: exact counters repeat exactly for a fixed seed.

    python3 perfbench/test_exact.py [--seconds 1] [--workload W ...]

Runs every workload (or the ones named) twice with --trace 1 and the same
seed, and fails unless every counter the benchmark calls exact is
identical across the two runs, and both runs are correct.
"""
import argparse
import sys

import run

# Counters measured over a fixed window of seeded operations.
EXACT = [
    "rt.wire_bytes_per_call",
    "rt.msgs_per_op",
    "core.msgs_per_cycle.class",
    "core.msgs_per_cycle.magistrate",
    "core.msgs_per_cycle.host",
    "core.msgs_per_cycle.binding-agent",
    "core.ba_consults_per_op",
    "obs.hist_records_per_op",
]
# Exact only where one thread does all the work.
EXACT_ON = {"sim_scale": ["process.allocs_per_op"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args()
    binary = run.build()
    failures = 0
    for workload in args.workload or run.WORKLOADS:
        results = []
        for _ in range(2):
            rc, result = run.run_once(binary, workload, args.seed,
                                      args.seconds, 1)
            if result is None or rc != 0 or not result["correct"]:
                print(f"FAIL {workload}: run failed (exit {rc})")
                failures += 1
                break
            results.append(result["metrics"])
        if len(results) < 2:
            continue
        for name in EXACT + EXACT_ON.get(workload, []):
            a, b = results[0][name]["value"], results[1][name]["value"]
            ok = a == b
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload:<13} {name:<36} "
                  f"{a!r} {'==' if ok else '!='} {b!r}")
    print("PASS" if failures == 0 else f"FAIL ({failures})")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
