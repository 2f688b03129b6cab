#!/usr/bin/env python3
"""Build and run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run in a checkout builds perfbench/perfbench.exe with dune into
.bench_build/ and trains the GEMM and CONV profiles the serving workloads
load (untimed, fixed seed, one domain). Every run is one fresh process
pinned to one OCaml domain. The last line of standard output is the
result object printed by perfbench.exe.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
PROFILES = os.path.join(".bench_build", "perfbench", "profiles")
WORKLOADS = ("cold_plan", "warm_serve", "tune", "execute")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def bench_env():
    """The environment every run sees: no inherited ISAAC_*/REPRO_* knobs
    (so tracing, telemetry and search caps stay at their defaults), one
    OCaml domain, and dune's shared cache off so the build writes only
    inside the checkout."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("ISAAC_", "REPRO_"))}
    env["ISAAC_DOMAINS"] = "1"
    env["DUNE_CACHE"] = "disabled"
    return env


def no_aslr():
    """`setarch -R` runs a program with address-space randomization off,
    so every run of a commit gets the same memory layout; [] where the
    tool or the personality call is unavailable."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    prefix = [setarch, os.uname().machine, "-R"]
    try:
        ok = subprocess.run(prefix + ["true"], stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, timeout=10).returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        ok = False
    return prefix if ok else []


def call(argv, timeout, capture):
    try:
        return subprocess.run(argv, cwd=ROOT, env=bench_env(), timeout=timeout,
                              stdout=subprocess.PIPE if capture else None,
                              stderr=subprocess.STDOUT if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %ds" % (argv[0], timeout))


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at the checkout root: the library sources are missing")
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    r = call([dune, "build", "--root", ".", "--build-dir", os.path.join(ROOT, BUILD_DIR),
              "./perfbench/perfbench.exe"], timeout=600, capture=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("build failed")


def prepare():
    profiles = [os.path.join(ROOT, PROFILES, f) for f in ("gemm.profile", "conv.profile")]
    if all(os.path.exists(p) for p in profiles):
        return
    os.makedirs(os.path.join(ROOT, PROFILES), exist_ok=True)
    r = call([os.path.join(ROOT, EXE), "prepare", "--profiles", PROFILES],
             timeout=240, capture=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("profile preparation failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build()
    prepare()
    argv = no_aslr() + [os.path.join(ROOT, EXE), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--profiles", PROFILES]
    if args.trace:
        argv += ["--spans", os.path.join(".bench_build", "perfbench",
                                         "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    started = time.monotonic()
    r = call(argv, timeout=RUN_TIMEOUT_S, capture=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("%s exited with %d after %.1fs" % (args.workload, r.returncode,
                                               time.monotonic() - started))
    sys.stdout.write(r.stdout)


if __name__ == "__main__":
    main()
