#!/usr/bin/env python3
"""Measure the run-to-run spread of the pipeline benchmark.

Run from the root of a checkout:

    python3 pipebench/steadiness.py --runs 10 [--workloads mine_soccer,...]
        [--first-seed 1] [--traced] [--log FILE]

For every workload it runs pipebench/run.py --runs times, each with its own
seed (first-seed, first-seed+1, ...), untraced, and prints per end-to-end
metric the median, the quartiles (statistics.quantiles, n=4) and the
interquartile spread as a share of the median, next to the metric's bound in
BENCHMARK.json and a third of it. With --traced it also runs each seed traced
and prints the tracing overhead: traced minus untraced median of each
end-to-end metric (the traced run reports them on standard error). With
--log, every run's standard error is appended to FILE (it carries the
oracle digests and, for mine_soccer, each world's precision and recall).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


LOG = None


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if LOG:
        with open(LOG, "a") as f:
            f.write("== %s seed %d trace %d\n%s" % (workload, seed, trace,
                                                   proc.stderr))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s seed %d failed" % (workload, seed))
    if not trace:
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items()}
    line = [l for l in proc.stderr.splitlines()
            if l.startswith("end-to-end (traced):")][-1]
    return {k: float(v) for k, v in re.findall(r"(\S+)=(\S+)", line)}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default="")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--log", default="")
    args = p.parse_args()
    global LOG
    LOG = args.log
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("| workload | metric | median | q1 | q3 | spread | bound/3 |")
    print("|---|---|---|---|---|---|---|")
    for w in workloads:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        untraced = []
        for s in seeds:
            untraced.append(run(w, s, spec["run_seconds"], 0))
            print("%s seed %d: %s" % (w, s, untraced[-1]), file=sys.stderr,
                  flush=True)
        traced = ([run(w, s, spec["run_seconds"], 1) for s in seeds]
                  if args.traced else [])
        for name in bounds:
            values = [r[name] for r in untraced]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else " !"
            print("| %s | %s | %.6g | %.6g | %.6g | %.4f%s | %.4f |"
                  % (w, name, med, q1, q3, spread, flag, bounds[name] / 3))
            if traced:
                tmed = statistics.median(r[name] for r in traced)
                print("| %s | %s (traced - untraced) | %+.6g | | | %+.4f | |"
                      % (w, name, tmed - med, (tmed - med) / med))
            sys.stdout.flush()


if __name__ == "__main__":
    main()
