#!/usr/bin/env python3
"""Measured benchmark of the relinker.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout.  Builds the driver (perfbench/CMakeLists.txt,
which compiles the libraries from src/) into .bench_build/, runs one workload,
echoes its report and checks the closing JSON line against BENCHMARK.json:
untraced runs must report exactly the end-to-end metrics, traced runs exactly
the per-layer metrics, each with its declared unit.  Exits nonzero when the
build fails, a correctness check fails, or the report does not conform.

--self-check runs every workload briefly in both modes; the driver itself
fails a traced run whose layer spans cover less than 95% of an operation.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "out")
DRIVER = os.path.join(BUILD, "perfbench_driver")

# The driver must finish well inside the harness's per-run limit.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def declared(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def conforms(result, spec, trace):
    """The closing JSON line against the metric table in BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    want = declared(spec, trace)
    got = result["metrics"]
    for name in sorted(set(got) - set(want)):
        problems.append("metric %s is not declared in BENCHMARK.json" % name)
    for name in sorted(set(want) - set(got)):
        problems.append("declared metric %s was not reported" % name)
    for name in sorted(set(want) & set(got)):
        if got[name].get("unit") != want[name]:
            problems.append("metric %s has unit %r, declared %r"
                            % (name, got[name].get("unit"), want[name]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def run(spec, workload, seed, seconds, trace):
    """One driver run; returns its exit code (0 = correct and conforming)."""
    os.makedirs(OUT, exist_ok=True)
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", OUT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S))
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        log("perfbench: the driver printed no result line")
        return 1
    problems = conforms(result, spec, trace)
    # Report first, result line last.
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    for p in problems:
        print("SELF-CHECK FAILED: " + p)
    print(json.dumps(result))
    sys.stdout.flush()
    if problems:
        return 1
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    try:
        with open(SPEC) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        log("perfbench: cannot read %s: %s" % (SPEC, e))
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if not args.self_check and (args.workload not in names
                                or args.seconds is None):
        ap.print_usage(sys.stderr)
        return 2
    if not build():
        return 1

    if not args.self_check:
        return run(spec, args.workload, args.seed, args.seconds, args.trace)

    failed = 0
    for workload in names:
        for trace in (0, 1):
            code = run(spec, workload, args.seed, 1, trace)
            log("self-check %s trace=%d: %s"
                % (workload, trace, "ok" if code == 0 else "FAILED"))
            failed += code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
