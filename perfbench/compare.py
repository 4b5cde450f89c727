#!/usr/bin/env python3
"""Compares two sets of benchmark runs, or reports the spread of one.

    python3 perfbench/compare.py SET_A SET_B    # A = parent, B = change
    python3 perfbench/compare.py SET            # steadiness of one set

A set is a directory laid out like .bench_out/results:
<set>/<workload>/seed<N>-trace0.json, one untraced record per seed (write
one with perfbench/sweep.py). Bounds and directions come from
BENCHMARK.json.

For every workload and end-to-end metric the table gives each side's
median and quartiles (statistics.quantiles, n=4), the spread (quartile
distance over the median), the share of seed-matched pairs B won (ties
count for neither side), and a verdict:

  improved     B won at least 90% of the pairs and the medians differ by
               more than A's quartile distance, in B's favour;
  unresolved   a side's spread is wider than the bound and B did not beat
               A on every run;
  regressed    B's median is worse than A's by more than the bound;
  no worse     otherwise.

Records whose host blocks differ (CPU, nproc, compiler, build type or the
workload's fixed sizes) are not compared: the tool exits with code 2. The
git sha and the seed are expected to differ and are ignored.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_KEYS = ("nproc", "cpu_model", "compiler", "build_type", "workload_sizes")


def load_set(path):
    runs = {}
    for record_path in sorted(glob.glob(os.path.join(path, "*", "seed*-trace0.json"))):
        with open(record_path) as f:
            record = json.load(f)
        runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def host_key(record):
    return json.dumps({k: record["host"].get(k) for k in HOST_KEYS}, sort_keys=True)


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def better(a, b, direction):
    """True when value b is better than value a."""
    return b < a if direction == "lower" else b > a


def verdict(metric, a_vals, b_vals, pairs):
    bound = metric["bound"]
    direction = metric["better"]
    m_a, q1_a, q3_a = summary(a_vals)
    m_b, q1_b, q3_b = summary(b_vals)
    won = sum(1 for a, b in pairs if better(a, b, direction))
    lost = sum(1 for a, b in pairs if better(b, a, direction))
    decided = won + lost
    spread_a = (q3_a - q1_a) / m_a if m_a else float("inf")
    spread_b = (q3_b - q1_b) / m_b if m_b else float("inf")
    worse = (m_b - m_a) / m_a if direction == "lower" else (m_a - m_b) / m_a
    all_better = all(better(a, b, direction) for a in a_vals for b in b_vals)
    if (decided and won / decided >= 0.9 and abs(m_b - m_a) > q3_a - q1_a
            and better(m_a, m_b, direction)):
        word = "improved"
    elif max(spread_a, spread_b) > bound and not all_better:
        word = "unresolved"
    elif worse > bound:
        word = "regressed"
    else:
        word = "no worse"
    return m_a, q1_a, q3_a, spread_a, m_b, q1_b, q3_b, spread_b, won, decided, word


def failed_ratio(records):
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return failed / attempted if attempted else float("nan")


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = [load_set(p) for p in argv[1:]]
    for workload in sorted(set().union(*sets)):
        records = [r for s in sets for r in s.get(workload, {}).values()]
        if len({host_key(r) for r in records}) > 1:
            print("%s: host blocks differ; refusing to compare" % workload)
            for r in records:
                print("  seed %d: %s" % (r["seed"], host_key(r)))
            return 2

    exit_code = 0
    for w in spec["workloads"]:
        runs = [s.get(w["name"], {}) for s in sets]
        if not all(runs):
            continue
        print("== %s (%s)" % (w["name"], "; ".join(
            "%s: %d runs, failed_ratio %.3g" % (
                "AB"[i], len(r), failed_ratio(list(r.values())))
            for i, r in enumerate(runs))))
        for metric in spec["end_to_end"]:
            key = metric["name"]
            a_vals = [r["end_to_end"][key]["value"] for r in runs[0].values()]
            if len(runs) == 1:
                m, q1, q3 = summary(a_vals)
                spread = (q3 - q1) / m if m else float("inf")
                flag = ("" if spread <= metric["bound"] / 3 else
                        "  <- above bound/3" if spread <= metric["bound"] else
                        "  <- above bound")
                print("  %-16s median %12.5g  q1 %12.5g  q3 %12.5g  spread %6.3f"
                      "  bound %.2f%s" % (key, m, q1, q3, spread, metric["bound"], flag))
                continue
            b_vals = [r["end_to_end"][key]["value"] for r in runs[1].values()]
            pairs = [(runs[0][s]["end_to_end"][key]["value"],
                      runs[1][s]["end_to_end"][key]["value"])
                     for s in sorted(runs[0]) if s in runs[1]]
            (m_a, q1_a, q3_a, sp_a, m_b, q1_b, q3_b, sp_b, won, decided,
             word) = verdict(metric, a_vals, b_vals, pairs)
            if word == "regressed":
                exit_code = 1
            print("  %-16s A %11.5g [%.5g, %.5g]  B %11.5g [%.5g, %.5g]  "
                  "spread %.3f/%.3f  won %d/%d  %s"
                  % (key, m_a, q1_a, q3_a, m_b, q1_b, q3_b, sp_a, sp_b, won,
                     decided, word))
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
