#!/usr/bin/env python3
"""End-to-end benchmark of the Ratel training runtime (see README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ratel_perfbench (CMake, under .bench_build/perfbench) from
the repository's sources, runs the workload in its own process, and prints
as its last stdout line one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones.
With --trace 1 it runs the workload twice, untraced and then traced, and
prints the per-layer metrics of the traced run plus trace.overhead_pct,
the tokens/s the traced run lost against the untraced one. Exits nonzero
when a correctness check fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD = os.path.join(WORK, "build")
BINARY = os.path.join(BUILD, "ratel_perfbench")
# Every run, build excluded, ends within this many seconds.
DEADLINE_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    trainer_h = os.path.join(ROOT, "src", "runtime", "ratel_trainer.h")
    if not os.path.isfile(trainer_h):
        fail("the Ratel sources (src/) are not next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "ratel_perfbench",
         "-j", jobs],
    ]
    if os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_workload(args, traced, deadline):
    """Runs the binary once; returns its JSON report."""
    run_dir = os.path.join(WORK, "run-%d-%d" % (os.getpid(), traced))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(int(traced)),
           "--store-root", os.path.join(run_dir, "stores")]
    if traced:
        traces = os.path.join(WORK, "traces")
        os.makedirs(traces, exist_ok=True)
        trace_out = os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_out]
        print("perfbench: Chrome trace -> " + trace_out, file=sys.stderr)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s run exceeded the %d s deadline" %
             ("traced" if traced else "untraced", DEADLINE_S))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("no report (exit code %d)" % proc.returncode)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # subprocess.run kills and waits for the running child on any
    # exception; turn SIGTERM into one so no child outlives this script.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    build()
    deadline = time.monotonic() + DEADLINE_S
    reports = [run_workload(args, False, deadline)]
    if args.trace:
        reports.append(run_workload(args, True, deadline))

    for report in reports:
        print(json.dumps({"context": report["context"],
                          "checks": report["checks"]}, sort_keys=True))
    correct = all(r["correct"] for r in reports)
    if not args.trace:
        metrics = reports[0]["metrics"]
    elif correct:
        metrics = dict(reports[1]["layer_metrics"])
        untraced = reports[0]["metrics"]["tokens_per_s"]["value"]
        traced = reports[1]["metrics"]["tokens_per_s"]["value"]
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (untraced - traced) / untraced, "unit": "%"}
    else:
        metrics = {}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }, sort_keys=True))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
