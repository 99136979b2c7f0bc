#!/usr/bin/env python3
"""Runs the Legion invocation benchmark.

    python3 perfbench/run.py --workload warm_call --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seconds 10      # every workload, a table

Run from the repository root (or anywhere: paths are taken from this file).
The first run configures and builds the benchmark package (perfbench/
CMakeLists.txt, which builds the repository's libraries from src/) under
.bench_build/perfbench; later runs rebuild only what changed.

A single run prints, as the last line of stdout, one JSON object with the
keys correct, attempted, failed and metrics; --trace 0 reports the
end-to-end metrics and --trace 1 the per-layer ones. Each run's result,
with the build and machine metadata, is also written to
perfbench/results/<workload>-seed<seed>-trace<t>.json; traced runs add the
trace report and a span dump there. The exit code is 0 only for a correct
run.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ["warm_call", "object_churn", "process_call", "sim_scale"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no Legion sources under {ROOT}/src; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "-j", jobs,
                      "--target", "perfbench"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(BUILD, "perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True,
                             timeout=10).stdout.strip()
        if sha:
            return {"git_sha": sha}
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "examples", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "results")
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return {"source_sha256": digest.hexdigest()}


def stop_group(pgid):
    """Kills every process left in a process group and waits until none is."""
    for _ in range(500):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result dict or None)."""
    # Relative to ROOT, the binary's working directory: Unix socket paths
    # under it must stay short whatever the checkout's path is.
    run_rel = os.path.join(".bench_build", "perfbench-run", str(os.getpid()))
    run_dir = os.path.join(ROOT, run_rel)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(RESULTS, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", RESULTS, "--run-dir", run_rel]
    # The binary leads its own process group, so worker processes it left
    # behind (were it killed or to crash) are stopped with it. Its stdout is
    # a file: a pipe would stay open as long as any such worker lived.
    out_path = os.path.join(run_dir, "stdout")
    timed_out = False
    with open(out_path, "w") as out:
        proc = subprocess.Popen(cmd, stdout=out, cwd=ROOT,
                                start_new_session=True)
        try:
            proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:
            stop_group(proc.pid)
            proc.wait()
    with open(out_path) as f:
        stdout = f.read()
    shutil.rmtree(run_dir, ignore_errors=True)
    if timed_out:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = [l for l in stdout.splitlines() if l.startswith("{")]
    if not lines:
        return proc.returncode or 1, None
    result = json.loads(lines[-1])
    info = result.pop("info", {})
    info.update(source_id())
    name = f"{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(RESULTS, name), "w") as f:
        json.dump({"info": info, "result": result}, f, indent=1)
        f.write("\n")
    return proc.returncode, result


def run_all(binary, seed, seconds):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, result = run_once(binary, workload, seed, seconds, trace)
            if result is None:
                print(f"{workload} trace={trace}: no result (exit {rc})")
                ok = False
                continue
            ok = ok and rc == 0 and result["correct"]
            print(f"{workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:<36} {m['value']:>16.4f} {m['unit']}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    binary = build()
    if args.all:
        return run_all(binary, args.seed, args.seconds)
    rc, result = run_once(binary, args.workload, args.seed, args.seconds,
                          args.trace)
    if result is None:
        fail(f"{args.workload} printed no result (exit {rc})")
    print(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
