#!/usr/bin/env python3
"""The pipeline benchmark's own tests. Run from the root of a checkout:

    python3 pipebench/selftest.py

1. Tiny size: every workload runs at --size tiny, untraced and traced, and
   its result line must carry exactly the end-to-end (untraced) or per-layer
   (traced) metrics of BENCHMARK.json, each with its unit (run.py checks
   this), with every end-to-end value above zero.
2. The gates fire: a corrupted WCAL byte (mine_soccer, ingest_mixed) and a
   dropped feed event (serve_churn) must each make the run exit non-zero
   without printing a result line.

Takes well under a minute once the benchmark is built.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mine_soccer", "ingest_mixed", "serve_churn")


def run(workload, trace, inject="none"):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size",
         "tiny", "--inject", inject],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def main():
    failures = []

    def check(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        for trace in (0, 1):
            proc = run(w, trace)
            ok = proc.returncode == 0 and proc.stdout.strip() != ""
            if ok and trace == 0:
                metrics = json.loads(proc.stdout.strip().splitlines()[-1])
                ok = all(m["value"] > 0 for m in metrics["metrics"].values())
            if not ok:
                sys.stderr.write(proc.stderr[-2000:])
            check(ok, "%s tiny trace=%d prints every metric with its unit"
                  % (w, trace))

    for w, inject in (("mine_soccer", "corrupt-wcal"),
                      ("ingest_mixed", "corrupt-wcal"),
                      ("serve_churn", "drop-event")):
        proc = run(w, 0, inject)
        check(proc.returncode != 0 and proc.stdout.strip() == "",
              "%s --inject %s fails the run" % (w, inject))

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
