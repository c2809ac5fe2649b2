#!/usr/bin/env python3
"""Runs one workload of the GED serving benchmark (see README.md).

    python3 gedbench/run.py --workload hard-range-2k --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout. Builds the benchmark and the library
from source (CMake, Release) into $CARGO_TARGET_DIR/gedbench, or
.bench_build/gedbench when that variable is unset; prepares the
workload's store file (once per build: the corpora are fixed); then
serves it in a fresh process.
Every line the server prints is passed through; the last line of stdout
is the JSON result. Exits non-zero, without a result line, when the
build, the preparation or the serving run fails.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hard-range-2k", "mixed-aids-100k", "churn-aids-100k")
# A run must end within 180 s once built; leave room for start-up.
RUN_BUDGET_S = 170.0
BUILD_TIMEOUT_S = 850.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "gedbench")


def build(out):
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if res.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def source_key():
    """Digest of the program and benchmark sources: determinism digests
    are only compared between runs of the same code."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "src")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run(cmd, timeout):
    """Runs cmd, passing stderr through; returns stdout lines or None."""
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
        return None
    lines = res.stdout.splitlines()
    if res.returncode != 0:
        for line in lines:
            log(line)
        log(f"exit code {res.returncode}: {' '.join(cmd)}")
        return None
    return lines


def main():
    # On SIGTERM, unwind: subprocess.run then kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    if not build(out):
        return 1
    start = time.monotonic()
    binary = os.path.join(out, "gedbench")
    state = os.path.join(out, "state", source_key())
    os.makedirs(state, exist_ok=True)
    # The corpora are fixed, so each store file is prepared once per build
    # of the sources; the two molecule workloads share theirs.
    corpus = "hard-2k" if args.workload == "hard-range-2k" else "aids-100k"
    store = os.path.join(state, corpus + ".store")
    if not os.path.exists(store):
        tmp = f"{store}.{os.getpid()}.tmp"
        try:
            prep = run([binary, "prepare", "--workload", args.workload,
                        "--store", tmp], RUN_BUDGET_S)
            if prep is None:
                return 1
            for line in prep:
                print(line)
            os.replace(tmp, store)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    left = RUN_BUDGET_S - (time.monotonic() - start)
    lines = run([binary, "serve", "--workload", args.workload,
                 "--seed", str(args.seed), "--store", store,
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--state-dir", state], max(left, 1.0))
    if not lines:
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("the server printed no result line")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
