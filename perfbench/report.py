#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print every metric.

Usage, from the root of a checkout:

    python3 perfbench/report.py [--seed N] [--seconds S]

Each workload runs in its own process through run.py. Prints one row per
(workload, metric) with its unit, and exits 1 if any run fails or reports
a failed op or check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold_plan", "warm_serve", "tune", "execute")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    args = ap.parse_args()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            r = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=os.path.dirname(HERE), stdout=subprocess.PIPE, text=True)
            if r.returncode != 0:
                print("%s trace=%d: run failed" % (workload, trace))
                ok = False
                continue
            result = json.loads(r.stdout.strip().splitlines()[-1])
            print("%s trace=%d correct=%s attempted=%d failed=%d"
                  % (workload, trace, result["correct"], result["attempted"], result["failed"]))
            ok = ok and result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                print("  %-28s %16.6g %s" % (name, m["value"], m["unit"]))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
