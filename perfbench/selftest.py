#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [--workloads cold_plan,warm_serve,tune,execute]

For each workload it makes two traced runs at one seed and one at another
seed, all with --seconds 1 (every workload still completes its minimum op
count). It checks that the runs succeed with no failed op, that their
`determinism` lines agree exactly at one seed (plan and output digests,
speedup_vs_vendor, model_mse and the per-layer counts), and that the
second seed draws a different request sequence. Exits 1 on any mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (11, 12)


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = [json.loads(l) for l in out.strip().splitlines() if l.startswith("{")]
    result = lines[-1]
    det = next(l["determinism"] for l in lines if "determinism" in l)
    if not result["correct"] or result["failed"]:
        raise SystemExit("%s seed %d: correct=%s failed=%d"
                         % (workload, seed, result["correct"], result["failed"]))
    return det


def sequence_keys(det):
    """The digests that identify the inputs a run drew."""
    return {k: v for k, v in det.items()
            if k in ("requests", "model_mses", "outputs")}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="cold_plan,warm_serve,tune,execute")
    args = ap.parse_args()
    ok = True
    for workload in args.workloads.split(","):
        first, again, other = run(workload, SEEDS[0]), run(workload, SEEDS[0]), run(workload, SEEDS[1])
        same = first == again
        differs = sequence_keys(first) != sequence_keys(other)
        print("%-10s repeat-at-one-seed=%s second-seed-differs=%s"
              % (workload, "ok" if same else "MISMATCH", "ok" if differs else "SAME"))
        if not same:
            for k in sorted(set(first) | set(again)):
                if first.get(k) != again.get(k):
                    print("  %s: %r vs %r" % (k, first.get(k), again.get(k)))
        ok = ok and same and differs
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
