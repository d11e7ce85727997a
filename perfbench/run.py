#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench binary from source and runs one
workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The binary and the repository libraries it
links are built into .bench_build/perfbench (CMake, Release).  The binary's
metric table is passed through; the last line printed is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are BENCHMARK.json's end_to_end ones, with --trace 1 its per_layer
ones; every workload reports each of them (0 for a layer it does not run),
and a metric the binary did not report fails the run.
The exit code is 0 only when every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "run")
# Configure plus build, so that a first run that builds ends within 900 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
# Runnable by name but not in BENCHMARK.json: its run-to-run spread on a
# shared 4-thread host exceeds the bounds (README.md, "Spread at HEAD").
UNGATED_WORKLOADS = ["serve-open"]


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs cmd with its output sent to stderr; returns the exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("timed out: " + " ".join(cmd))
        return -1


def build(target):
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no repository sources next to perfbench/; run from a checkout")
        return None
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        code = run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                         deadline - time.monotonic())
        if code != 0:
            log("cmake configure failed")
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code = run_quiet(["cmake", "--build", BUILD_DIR, "--target", target,
                      "-j", jobs], deadline - time.monotonic())
    if code != 0:
        log("build failed")
        return None
    return os.path.join(BUILD_DIR, target)


def select_metrics(spec, detail, trace):
    """The metrics BENCHMARK.json names for this mode, from the binary's."""
    measured = detail["metrics"]
    selected = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = measured.get(m["name"])
        if got is None:
            raise ValueError("perfbench did not report " + m["name"])
        if got["unit"] != m["unit"]:
            raise ValueError("%s: unit %s, BENCHMARK.json says %s"
                             % (m["name"], got["unit"], m["unit"]))
        selected[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return selected


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(OUT_DIR, exist_ok=True)

    if args.selftest:
        binary = build("perfbench_selftest")
        if binary is None:
            return 2
        return run_quiet([binary, OUT_DIR], RUN_TIMEOUT_S)

    names = [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS
    if args.workload not in names:
        log("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
        return 2
    binary = build("perfbench")
    if binary is None:
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench timed out")
        return 3
    lines = out.rstrip("\n").split("\n")
    try:
        detail = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        log("perfbench exited %d without a result" % proc.returncode)
        return 3
    for line in lines[:-1]:
        print(line)
    try:
        metrics = select_metrics(spec, detail, args.trace == 1)
    except ValueError as e:
        log(str(e))
        return 3
    correct = bool(detail["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": detail["attempted"],
                      "failed": detail["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
