#!/usr/bin/env python3
"""Runs one workload of the gqe benchmark and prints its result.

    python3 perfbench/run.py --workload open-world --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The script builds the benchmark (the gqe
library and gqe_serve from the checkout's sources, plus the driver in
perfbench/driver) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the workload in its own process, and prints

  * a table of every metric with its unit (and, with --trace 1, the
    per-layer table and the tracing overhead against an untraced run of
    the same seed, when one exists);
  * as the last line, one JSON object with the keys correct, attempted,
    failed and metrics: the end-to-end metrics of BENCHMARK.json with
    --trace 0, its per-layer metrics with --trace 1.

The full record, with the host block, goes to
.bench_out/results/<workload>/seed<seed>-trace<trace>.json; with --trace 1
the spans go to .bench_out/results/<workload>/trace-seed<seed>.json
(Chrome trace-event JSON). perfbench/compare.py compares sets of records.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("open-world", "closed-world", "serve-mixed", "chase-sharded")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures once and builds; a no-op build takes well under a second."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = out + ".log"
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log) != 0:
                # A failed configure leaves a cache behind; drop it so the
                # next run configures again.
                shutil.rmtree(out, ignore_errors=True)
                return None, log_path
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.call(["cmake", "--build", out, "--parallel", jobs,
                            "--target", "gqe_perfbench", "gqe_serve"],
                           stdout=log, stderr=log) != 0:
            return None, log_path
    return out, log_path


def cache_value(out, key):
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_revision():
    """The git sha when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "examples", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()


def host_block(out, seed, sizes):
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache_value(out, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()
        compiler = version[0] if version else compiler
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "compiler": compiler,
        "build_type": cache_value(out, "CMAKE_BUILD_TYPE"),
        "git_sha": source_revision(),
        "seed": seed,
        "workload_sizes": sizes,
    }


def run_driver(out, args, scratch):
    """Runs the driver in its own process group; on a hang the whole group
    (daemon and shard workers included) is killed and reaped."""
    command = [os.path.join(out, "gqe_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", scratch,
               "--serve-binary", os.path.join(out, "examples", "gqe_serve")]
    if args.inject_wrong_digest:
        command.append("--inject-wrong-digest")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload timed out")
    if proc.returncode != 0:
        fail("driver exited with code %d" % proc.returncode)
    lines = stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing")
    return json.loads(lines[-1])


def print_table(title, metrics):
    print(title)
    for name in sorted(metrics):
        m = metrics[name]
        # The driver writes null for a time that never finished (e.g. a
        # percentile landing on a request without an answer).
        value = "%14.6g" % m["value"] if m["value"] is not None else "%14s" % "none"
        print("  %-32s %s %s" % (name, value, m["unit"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-wrong-digest", action="store_true",
                        help="self-test: corrupt one reference digest")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    out, log_path = build()
    if out is None:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail("build failed (log: %s)" % log_path)

    results = os.path.join(ROOT, ".bench_out", "results", args.workload)
    scratch = os.path.join(ROOT, ".bench_out", "scratch-%d" % os.getpid())
    os.makedirs(results, exist_ok=True)
    os.makedirs(scratch, exist_ok=True)
    started = time.time()
    try:
        record = run_driver(out, args, scratch)
        trace_src = os.path.join(scratch, "trace-%s.json" % args.workload)
        trace_file = None
        if args.trace and os.path.exists(trace_src):
            trace_file = os.path.join(results, "trace-seed%d.json" % args.seed)
            shutil.move(trace_src, trace_file)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    produced = record["per_layer"] if args.trace else record["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in produced and produced[m["name"]]["value"] is None:
            fail("%s has no value: too few operations finished" % m["name"])
        if m["name"] in produced:
            metrics[m["name"]] = produced[m["name"]]
        elif args.trace:
            # A layer this workload never calls.
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            fail("workload did not report %s" % m["name"])
    correct = record["failed"] == 0 and record["attempted"] > 0

    full = {
        "host": host_block(out, args.seed, record["sizes"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.time() - started,
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "failures": record["failures"],
        "end_to_end": record["end_to_end"],
        "per_layer": record["per_layer"],
        "counts": record["counts"],
        "notes": record["notes"],
        "digests": record["digests"],
        "trace_file": trace_file,
    }
    path = os.path.join(results, "seed%d-trace%d.json" % (args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(full, f, indent=1)

    print("workload %s seed %d: attempted %d, failed %d, correct %s"
          % (args.workload, args.seed, record["attempted"], record["failed"],
             correct))
    for why in record["failures"]:
        print("  failure: " + why)
    print_table("end-to-end" + (" (traced run)" if args.trace else ""),
                record["end_to_end"])
    for name, value in sorted(record["counts"].items()):
        print("  %-32s %14.6g" % ("count." + name, value))
    for name, value in sorted(record["notes"].items()):
        print("  %-32s %s" % ("note." + name, value))
    if args.trace:
        print_table("per-layer", record["per_layer"])
        untraced = os.path.join(results, "seed%d-trace0.json" % args.seed)
        if os.path.exists(untraced):
            with open(untraced) as f:
                base = json.load(f)["end_to_end"]
            print("tracing overhead (traced - untraced, same seed)")
            for name in sorted(base):
                traced = record["end_to_end"].get(name, {}).get("value")
                if traced is not None and base[name]["value"] is not None:
                    print("  %-32s %+14.6g %s" % (name, traced - base[name]["value"],
                                                  base[name]["unit"]))
        if trace_file:
            print("trace written to " + os.path.relpath(trace_file, ROOT))
    print("record written to " + os.path.relpath(path, ROOT))
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
