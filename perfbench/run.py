#!/usr/bin/env python3
"""Benchmark runner for the FLH flow.

    python3 perfbench/run.py --workload cold_flow --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the program from ../src) into .bench_build
on first use, runs one workload of flh_perfbench, and prints as the last line
of standard output one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are BENCHMARK.json's end_to_end list,
with --trace 1 its per_layer list; the traced run also writes a Chrome trace
and a per-layer self-time table under .bench_out/<workload>/.

--smoke runs tiny inputs (s27/s298, a handful of requests); --inject-bad adds
one operation that must come back counted as failed. Both exist for
perfbench/test_smoke.py.
"""

import argparse
import fnmatch
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing behind in perfbench/
import trace_table  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "flh_perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then an incremental build; all output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources at src/; run from a checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "flh_perfbench"])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def select_metrics(spec, workload, trace, raw):
    """Keep the metrics BENCHMARK.json lists for this mode, in its order.

    A per-layer metric the run did not produce is reported as 0 only when
    perfbench/workloads.json says the workload bypasses that layer or cannot
    see it from outside the program; any other gap is a benchmark bug.
    """
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    record = load_json(os.path.join(HERE, "workloads.json"))["workloads"][workload]
    absent_ok = [layer + ".*" for layer in record["bypasses"]] + record.get("unmeasured", [])
    out = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in raw:
            if raw[name]["unit"] != unit:
                fail("metric %s has unit %s, BENCHMARK.json says %s" % (name, raw[name]["unit"], unit))
            out[name] = {"value": raw[name]["value"], "unit": unit}
        elif trace and any(fnmatch.fnmatchcase(name, p) for p in absent_ok):
            out[name] = {"value": 0, "unit": unit}
        else:
            fail("workload %s produced no metric %s" % (workload, name))
    return out


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject-bad", action="store_true")
    args = ap.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    build()

    out_dir = os.path.join(OUT, args.workload + ("-smoke" if args.smoke else ""))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_bad:
        cmd.append("--inject-bad")
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("flh_perfbench exited with %d" % r.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    raw = result["metrics"]

    if args.trace:
        extra, checks = trace_table.analyse(os.path.join(out_dir, "trace.json"), raw, out_dir)
        raw.update(extra)
        for ok, why in checks:
            result["attempted"] += 1
            if not ok:
                result["failed"] += 1
                print("FAILED: " + why)
        with open(os.path.join(out_dir, "layers.md")) as f:
            print(f.read().rstrip())

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": select_metrics(spec, args.workload, args.trace, raw),
    }))


if __name__ == "__main__":
    main()
