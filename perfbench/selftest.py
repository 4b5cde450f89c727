#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py [--seconds 3] [--workloads a,b]

For every workload it checks that

  1. a run with one deliberately wrong reference digest
     (--inject-wrong-digest) reports failed >= 1 and correct = false: the
     output checks really count mismatches;
  2. an untraced and a traced run of the same seed produce identical
     answer digests on their common prefix of operations: tracing does
     not change what the library computes.

Exits 0 when every check holds.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 9001


def run(workload, seconds, trace, inject=False):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(SEED),
               "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        command.append("--inject-wrong-digest")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit("selftest: run.py failed for " + workload)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".bench_out", "results", workload,
                           "seed%d-trace%d.json" % (SEED, trace))) as f:
        return last, json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=3)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    ok = True
    for workload in workloads:
        last, _ = run(workload, args.seconds, 0, inject=True)
        injected_ok = last["failed"] >= 1 and not last["correct"]
        _, plain = run(workload, args.seconds, 0)
        _, traced = run(workload, args.seconds, 1)
        n = min(len(plain["digests"]), len(traced["digests"]))
        digests_ok = (n > 0 and plain["correct"] and traced["correct"] and
                      plain["digests"][:n] == traced["digests"][:n])
        print("%-14s injected digest counted: %-5s  traced == untraced "
              "digests (%d ops): %s" % (workload, injected_ok, n, digests_ok))
        ok = ok and injected_ok and digests_ok
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
