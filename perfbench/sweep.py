#!/usr/bin/env python3
"""Runs the benchmark over many seeds and collects the records as a set.

    # one checkout (this one): a set for compare.py
    python3 perfbench/sweep.py --out .bench_out/sets/base --seeds 1-10

    # parent against change: alternates which checkout runs first per seed
    python3 perfbench/sweep.py --out .bench_out/sets/pr --seeds 1-10 \\
        --a ../parent-checkout --b .

Writes <out>/<workload>/seed<N>-trace0.json (or <out>/a/... and <out>/b/...
with --a/--b). --seconds defaults to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(root, workload, seed, seconds, dest):
    command = [sys.executable, os.path.join(root, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit("run failed: %s seed %d in %s" % (workload, seed, root))
    last = json.loads(done.stdout.strip().splitlines()[-1])
    record = os.path.join(root, ".bench_out", "results", workload,
                          "seed%d-trace0.json" % seed)
    os.makedirs(os.path.join(dest, workload), exist_ok=True)
    shutil.copy(record, os.path.join(dest, workload))
    print("%s %-14s seed %3d  correct %s" % (os.path.basename(dest) or dest,
                                             workload, seed, last["correct"]),
          flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--a", help="parent checkout root")
    parser.add_argument("--b", help="change checkout root")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    if bool(args.a) != bool(args.b):
        raise SystemExit("--a and --b go together")
    for workload in workloads:
        for i, seed in enumerate(args.seeds):
            if not args.a:
                run(os.path.dirname(HERE), workload, seed, seconds, args.out)
                continue
            sides = [("a", args.a), ("b", args.b)]
            for side, root in (sides if i % 2 == 0 else sides[::-1]):
                run(os.path.abspath(root), workload, seed, seconds,
                    os.path.join(args.out, side))


if __name__ == "__main__":
    main()
