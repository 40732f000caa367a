#!/usr/bin/env python3
"""Campaign benchmark entry point.

Builds the benchmark package (perfbench/CMakeLists.txt: the `sable`
library from src/ plus the benchmark program) into .bench_build/ at the checkout root
on first use, then runs one workload and relays its output; the last
stdout line is the JSON result.

    python3 perfbench/run.py --workload live_attack --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py ... --out results.jsonl   # also append the result
    python3 perfbench/run.py --self-test               # timing-wrapper test

Workloads: live_attack, record_corpus, replay_all_subkeys, sampled_attack
(see perfbench/campaign_bench.cpp). --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones. Two --out files compare with
perfbench/compare.py.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    """Configures once and builds incrementally; serialized by a lock file."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "-j", jobs,
                      "--target", "campaign_bench", "wrapper_test"])
        for step in steps:
            # Build chatter goes to stderr: stdout carries the result.
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                sys.exit("perfbench: build failed: " + " ".join(step))


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append meta + result as a JSON line")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build()
    if args.self_test:
        work = os.path.join(BUILD, "work", "wrapper_test-%d" % os.getpid())
        sys.exit(subprocess.run([os.path.join(BUILD, "wrapper_test"),
                                 work]).returncode)
    if not args.workload:
        parser.error("--workload is required")

    work = os.path.join(BUILD, "work", "%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(BUILD, "campaign_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--commit", git_commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)

    if args.out:
        lines = proc.stdout.strip().splitlines()
        meta = {}
        for line in lines:
            if line.startswith("# meta "):
                meta = json.loads(line[len("# meta "):])
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "meta": meta,
                  "result": json.loads(lines[-1])}
        with open(args.out, "a") as out:
            out.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
