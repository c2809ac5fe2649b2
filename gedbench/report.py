#!/usr/bin/env python3
"""Traced-run report: self time by layer per workload, plus the tracing
overhead.

    python3 gedbench/report.py --seed 1 --seconds 50 > report.md

For each workload, runs gedbench/run.py untraced and traced on the same
seed and prints, in Markdown, the traced server's self-time table and
the tracing overhead, two ways: the client time of the digest prefix
(the same operations in both runs), and the median range latency
(traced `trace.range_ms_p50` against untraced `range_p50_ms`), each as
traced over untraced, minus one.
"""
import argparse
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hard-range-2k", "mixed-aids-100k", "churn-aids-100k")
PREFIX = re.compile(r"^prefix: (\d+) ops in ([0-9.]+) ms")
METRIC = re.compile(r"^  (\S+) +([0-9.]+) ")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    if res.returncode != 0:
        sys.exit(f"failed: {' '.join(cmd)}")
    return res.stdout.splitlines()


def prefix_ms(lines):
    for line in lines:
        m = PREFIX.match(line)
        if m:
            return int(m.group(1)), float(m.group(2))
    sys.exit("no prefix line in the server output")


def metric(lines, name):
    for line in lines:
        m = METRIC.match(line)
        if m and m.group(1) == name:
            return float(m.group(2))
    sys.exit(f"no {name} in the server output")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    args = ap.parse_args()
    for w in WORKLOADS:
        plain = run(w, args.seed, args.seconds, 0)
        traced = run(w, args.seed, args.seconds, 1)
        ops, untraced_ms = prefix_ms(plain)
        _, traced_ms = prefix_ms(traced)
        print(f"### {w} (seed {args.seed})\n")
        p50 = metric(plain, "range_p50_ms")
        traced_p50 = metric(traced, "trace.range_ms_p50")
        print(f"Tracing overhead on the {ops}-op prefix: "
              f"{traced_ms:.1f} ms traced vs {untraced_ms:.1f} ms untraced "
              f"({100.0 * (traced_ms / untraced_ms - 1.0):+.1f}%); on the "
              f"median range read: {traced_p50:.3f} ms vs {p50:.3f} ms "
              f"({100.0 * (traced_p50 / p50 - 1.0):+.1f}%).\n")
        print("```")
        table = False
        for line in traced:
            if line.startswith("self time by layer"):
                table = True
            if table and line.startswith("  failed_frac"):
                break
            if table:
                print(line)
        print("```\n")


if __name__ == "__main__":
    main()
