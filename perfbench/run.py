#!/usr/bin/env python3
"""One command for the end-to-end benchmark.

    python3 perfbench/run.py --workload ingest_backlog --seed 1 --seconds 35 --trace 0

builds the benchmark (perfbench/CMakeLists.txt, compiling the library
sources under src/) into .bench_build/perfbench, runs one workload and
passes the program's output through. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
code is 0 only when that object says "correct": true.

Other modes:
    --selftest              build and run the arithmetic self-tests
    --save DIR              also write the result line to DIR/<workload>-seed<N>-trace<T>.json
    --compare DIR_A DIR_B   compare two sets of saved runs (see compare.py)

Everything it writes stays under .bench_build/ at the checkout root.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("ingest_backlog", "refresh_cycle")
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "svc.h")):
        fail("library sources not found under %s/src; run from a full checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           universal_newlines=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail("build failed: %s" % " ".join(cmd), 1)


def run_workload(args):
    work = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(BUILD, "svcbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work,
           "--trace-out", os.path.join(traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, universal_newlines=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = p.stdout.rstrip("\n")
    if p.returncode != 0:
        sys.stdout.write(out + "\n")
        fail("svcbench exited with %d" % p.returncode, 1)
    last = out.splitlines()[-1] if out else ""
    try:
        result = json.loads(last)
    except ValueError:
        fail("no result line from svcbench", 1)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        want = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
        if sorted(want) != sorted(result.get("metrics", {})):
            sys.stdout.write(out + "\n")
            fail("metrics printed by svcbench do not match BENCHMARK.json", 1)
    sys.stdout.write(out + "\n")
    sys.stdout.flush()
    if args.save:
        os.makedirs(args.save, exist_ok=True)
        name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
        with open(os.path.join(args.save, name), "w") as f:
            json.dump(result, f)
            f.write("\n")
    if result.get("correct") is not True:
        fail("the run's outputs are wrong (\"correct\": false)", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", metavar="DIR")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    args = ap.parse_args()
    if args.compare:
        sys.path.insert(0, HERE)
        import compare
        sys.exit(compare.main(args.compare[0], args.compare[1],
                              os.path.join(ROOT, "BENCHMARK.json")))
    build()
    if args.selftest:
        p = subprocess.run([os.path.join(BUILD, "perfbench_selftest")], cwd=ROOT)
        sys.exit(p.returncode)
    if not args.workload:
        fail("--workload is required")
    if args.seconds < 1:
        fail("--seconds must be >= 1")
    run_workload(args)


if __name__ == "__main__":
    main()
