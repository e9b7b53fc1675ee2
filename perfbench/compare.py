#!/usr/bin/env python3
"""Compares two sets of saved benchmark runs (run.py --save DIR).

    python3 perfbench/run.py --compare DIR_A DIR_B

A is the parent, B the change. For each workload x end-to-end metric it
prints each side's median and quartiles, the pairs B won (runs paired by
seed; ties count for neither side) and a verdict:

  improved    B won at least 9/10 of the pairs and the medians differ by
              more than A's own quartile spread (IQR)
  no worse    B's median is not worse than A's by more than the metric's
              bound, and A's spread is within the bound (or every B run
              beats every A run)
  worse       B's median is worse than A's by more than the bound while
              A's spread is within it
  unresolved  anything else (the spread is wider than the bound)

A fast wrong answer is no gain. If any B run of a workload says
"correct": false, every metric of that workload is rated 'worse
(incorrect)' and the exit code is 1; an incorrect A run makes them
'unresolved (A incorrect)'. When B fails a larger share of its attempted
operations than A, 'improved' is withheld ('unresolved (more failures)').

Bounds and directions come from BENCHMARK.json.
"""
import glob
import json
import os
import re
import statistics
import sys


def load(run_dir):
    runs = {}
    for path in glob.glob(os.path.join(run_dir, "*-trace0.json")):
        m = re.match(r"(.+)-seed(\d+)-trace0\.json$", os.path.basename(path))
        if not m:
            continue
        with open(path) as f:
            runs.setdefault(m.group(1), {})[int(m.group(2))] = json.load(f)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, paired, better, bound):
    qa1, ma, qa3 = quartiles(a)
    _, mb, _ = quartiles(b)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for x, y in paired if sign * (y - x) > 0)
    losses = sum(1 for x, y in paired if sign * (y - x) < 0)
    spread = (qa3 - qa1) / abs(ma) if ma else float("inf")
    change = sign * (mb - ma) / abs(ma) if ma else 0.0
    if paired and wins >= 0.9 * len(paired) and abs(mb - ma) > (qa3 - qa1):
        v = "improved"
    elif a and b and (min(b) > max(a) if better == "higher" else max(b) < min(a)):
        v = "no worse"
    elif spread <= bound:
        v = "no worse" if change >= -bound else "worse"
    else:
        v = "unresolved"
    return wins, losses, v


def failure_ratio(runs):
    attempted = sum(r.get("attempted", 0) for r in runs.values())
    return sum(r.get("failed", 0) for r in runs.values()) / attempted if attempted else 0.0


def main(dir_a, dir_b, bench_json):
    with open(bench_json) as f:
        spec = json.load(f)
    ra, rb = load(dir_a), load(dir_b)
    if not ra or not rb:
        sys.stderr.write("compare: no saved runs in %s or %s\n" % (dir_a, dir_b))
        return 2
    print("%-15s %-22s %12s %25s %12s %25s %7s  %s" %
          ("workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]",
           "B wins", "verdict"))
    code = 0
    for wl in spec["workloads"]:
        name = wl["name"]
        a_runs, b_runs = ra.get(name, {}), rb.get(name, {})
        if not a_runs or not b_runs:
            print("%-15s (missing runs)" % name)
            continue
        a_wrong = sorted(s for s, r in a_runs.items() if r.get("correct") is not True)
        b_wrong = sorted(s for s, r in b_runs.items() if r.get("correct") is not True)
        fa, fb = failure_ratio(a_runs), failure_ratio(b_runs)
        print("%-15s A: %d runs, %d incorrect, failed ops %.4g; B: %d runs, %d incorrect, "
              "failed ops %.4g" % (name, len(a_runs), len(a_wrong), fa, len(b_runs),
                                   len(b_wrong), fb))
        if b_wrong:
            code = 1
        for m in spec["end_to_end"]:
            key = m["name"]
            a = [r["metrics"][key]["value"] for r in a_runs.values()]
            b = [r["metrics"][key]["value"] for r in b_runs.values()]
            paired = [(a_runs[s]["metrics"][key]["value"], b_runs[s]["metrics"][key]["value"])
                      for s in sorted(set(a_runs) & set(b_runs))]
            wins, losses, v = verdict(a, b, paired, m["better"], m["bound"])
            if b_wrong:
                v = "worse (incorrect)"
            elif a_wrong:
                v = "unresolved (A incorrect)"
            elif v == "improved" and fb > fa:
                v = "unresolved (more failures)"
            qa, qb = quartiles(a), quartiles(b)
            print("%-15s %-22s %12.5g %25s %12.5g %25s %3d/%-3d  %s" %
                  (name, key, qa[1], "[%.5g, %.5g]" % (qa[0], qa[2]), qb[1],
                   "[%.5g, %.5g]" % (qb[0], qb[2]), wins, len(paired), v))
    return code


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.stderr.write("usage: compare.py DIR_A DIR_B BENCHMARK.json\n")
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3]))
