#!/usr/bin/env python3
"""Builds bench_suite and runs the sparqlog benchmark.

One run of one workload (the form a harness uses):

    python3 perfbench/run.py --workload paper-mix --seed 2017 --seconds 10 --trace 0

prints the suite's report and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics.

Every workload in one command:

    python3 perfbench/run.py [--runs N] [--seed S] [--seconds S] [--trace 1]
                             [--out results.json]

runs each workload N times, prints every metric by name with its unit and
sample count (per run, then across runs), writes the per-run values to --out
for compare.py, and exits non-zero if any output differed from its oracle.

The build (CMake, Release) lands in .bench_build/, scratch files in
.bench_tmp/ (removed after each run) and trace files in .bench_out/, all at
the root of the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
TMP = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"
SUITE = BUILD / "bench_suite"
DEFAULT_SEED = 2017
RUN_TIMEOUT_S = 170


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once, then brings bench_suite up to date."""
    if not (ROOT / "src").is_dir():
        sys.exit("run.py: no src/ next to perfbench/; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_suite",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def run_suite(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    TMP.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=TMP)
    cmd = [str(SUITE), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--tmp", scratch]
    if trace:
        cmd += ["--out-dir", str(OUT / workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: %s did not finish within %d s"
                 % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    """The result object on the last line, or None."""
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def one(args):
    code, lines = run_suite(args.workload, args.seed, args.seconds,
                            args.trace)
    if result_of(lines) is None:
        print("\n".join(lines), file=sys.stderr)
        sys.exit("run.py: bench_suite exited %d without a result" % code)
    print("\n".join(lines))
    return code


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def every(args, bench):
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    results = {"seed": args.seed, "seconds": args.seconds,
               "trace": bool(args.trace), "runs": args.runs,
               "correct": True, "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        values = {m["name"]: [] for m in metrics}
        for r in range(args.runs):
            print("== %s, run %d of %d" % (name, r + 1, args.runs),
                  flush=True)
            code, lines = run_suite(name, args.seed, args.seconds, args.trace)
            print("\n".join(lines[:-1]), flush=True)
            result = result_of(lines)
            if code != 0 or result is None or not result["correct"]:
                results["correct"] = False
                print("run.py: %s run %d failed (exit %d)" % (name, r + 1,
                                                              code))
                continue
            for m in values:
                values[m].append(result["metrics"][m]["value"])
        results["workloads"][name] = {
            m["name"]: {"unit": m["unit"], "values": values[m["name"]]}
            for m in metrics}

    print("\n%-16s %-34s %-12s %14s %14s %14s %14s %14s %5s"
          % ("workload", "metric", "unit", "median", "p25", "p75", "min",
             "max", "runs"))
    for name, per_metric in results["workloads"].items():
        for m, entry in per_metric.items():
            v = entry["values"]
            if not v:
                continue
            q1, q3 = quartiles(v)
            print("%-16s %-34s %-12s %14.6g %14.6g %14.6g %14.6g %14.6g %5d"
                  % (name, m, entry["unit"], statistics.median(v), q1, q3,
                     min(v), max(v), len(v)))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=2)
            f.write("\n")
    if not results["correct"]:
        print("run.py: some output differed from its oracle", file=sys.stderr)
        return 1
    return 0


def main():
    bench = spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[w["name"]
                                          for w in bench["workloads"]])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--runs", type=int, default=1,
                   help="runs per workload without --workload")
    p.add_argument("--out", help="results file for compare.py")
    args = p.parse_args()
    build()
    return one(args) if args.workload else every(args, bench)


if __name__ == "__main__":
    sys.exit(main())
