#!/usr/bin/env python3
"""Build and run the WiClean pipeline benchmark.

Run from the root of a checkout:

    python3 pipebench/run.py --workload mine_soccer --seed 1 --seconds 30 --trace 0

Every run configures and builds pipebench/ (which compiles ../src) into
$CARGO_TARGET_DIR/pipebench, or .bench_build/pipebench when that variable is
unset; after the first run that is a no-op. Build output goes to standard
error.

The benchmark binary checks the pipeline's outputs against the oracles and
prints one JSON result line; this script checks that the line carries exactly
the metrics BENCHMARK.json lists for the mode (end-to-end with --trace 0,
per-layer with --trace 1), each with its unit, and prints it as the last line
of standard output. Any failure exits non-zero without printing a result.
With --trace 1 the Chrome trace is written next to the build.

Extra flags for the benchmark's own tests: --size tiny, --inject
corrupt-wcal|drop-event.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "pipebench")


def build():
    out = build_dir()
    subprocess.run(
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", out, "-j", "4"],
                   stdout=sys.stderr, check=True, timeout=840)
    return os.path.join(out, "pipebench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys: %s" % sorted(result))
    if result["correct"] is not True or result["attempted"] < 1:
        raise ValueError("result not correct or nothing attempted")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s" % (sorted(set(want) - set(got)),
                                       sorted(set(got) - set(want))))
    for name, unit in want.items():
        if got[name].get("unit") != unit:
            raise ValueError("metric %s has unit %r, want %r"
                             % (name, got[name].get("unit"), unit))
        if not isinstance(got[name].get("value"), (int, float)):
            raise ValueError("metric %s has no numeric value" % name)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--inject", default="none")
    args = p.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        log("build failed: %s" % e)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--inject", args.inject]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=175)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("benchmark failed with exit code %d" % proc.returncode)
        return proc.returncode or 1
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as e:
        log("bad result line: %s" % e)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
