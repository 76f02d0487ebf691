#!/usr/bin/env python3
"""Run one workload of the d2tree benchmark and print its metrics.

    python3 perfbench/run.py --workload lmbe-mem --seed 7 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds the d2tree library,
mdsd, d2fsck and the load generator (perfbench/d2perf) with CMake into
$CARGO_TARGET_DIR (default .bench_build); later runs only rebuild what
changed. d2perf boots a monitor plus three mdsd daemons on loopback,
drives them closed-loop from four client threads and checks every reply,
the daemons' shutdown audits and, on LSM workloads, d2fsck on every data
directory.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics (and a span file is written under
the build directory). A failed check prints "correct": false with no
metrics and exits 1. Without the repository's sources next to perfbench/
the run fails with exit code 2 before printing anything.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Each workload: trace profile and scale every process generates from the
# seed, the store backend of the MDS daemons, and how many times the
# cluster is booted to take the median set-up time.
WORKLOADS = {
    "lmbe-mem": {"profile": "lmbe", "scale": 0.05, "backend": "mem",
                 "setups": 9},
    "lmbe-lsm": {"profile": "lmbe", "scale": 4, "backend": "lsm",
                 "setups": 3},
    "ra-lsm": {"profile": "ra", "scale": 3, "backend": "lsm", "setups": 3},
}
# --smoke: the same workloads at a size that runs in seconds (output
# format checks only; the numbers mean nothing).
SMOKE_SCALE = {"lmbe-mem": 0.05, "lmbe-lsm": 0.2, "ra-lsm": 0.1}

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir):
    """Configures (once) and builds; returns the cmake build directory."""
    cmake_dir = os.path.join(out_dir, "cmake")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log(proc.stdout[-6000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return cmake_dir


def expected_metrics(trace):
    """(name -> unit) that BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny namespace, for output-format checks only")
    args = ap.parse_args()

    for need in ("src/CMakeLists.txt", "tools/mdsd/main.cpp",
                 "tools/d2fsck/main.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            log("perfbench: %s is missing; run from a full checkout" % need)
            return 2

    out_dir = build_dir()
    try:
        cmake_dir = build(out_dir)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as e:
        log("perfbench: %s" % e)
        return 2

    wl = dict(WORKLOADS[args.workload])
    if args.smoke:
        wl["scale"] = SMOKE_SCALE[args.workload]
    if args.smoke or args.trace:
        wl["setups"] = 1  # setup_s is only reported by untraced runs
    tag = "%s-seed%d" % (args.workload, args.seed)
    work = os.path.join(out_dir, "work", "%s-%d" % (tag, os.getpid()))
    report_path = work + ".report.json"
    # One span file per workload (the latest traced run): they run to tens
    # of MB each.
    spans_path = os.path.join(out_dir, "spans", args.workload + ".jsonl")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    cmd = [os.path.join(cmake_dir, "d2perf"),
           "--mdsd", os.path.join(cmake_dir, "mdsd", "mdsd"),
           "--fsck", os.path.join(cmake_dir, "d2fsck", "d2fsck"),
           "--profile", wl["profile"], "--scale", str(wl["scale"]),
           "--backend", wl["backend"], "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--setups", str(wl["setups"]), "--work", work,
           "--report", report_path]
    if args.trace:
        cmd += ["--spans", spans_path]
    started = time.monotonic()
    try:
        # d2perf's stdout is progress chatter; keep ours for the result.
        rc = subprocess.run(cmd, stdout=sys.stderr,
                            timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("perfbench: d2perf exceeded %ds" % RUN_TIMEOUT_S)
        rc = -1
    try:
        with open(report_path) as f:
            report = json.load(f) if rc == 0 else None
    except (OSError, ValueError) as e:
        log("perfbench: no d2perf report: %s" % e)
        report = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.exists(report_path):
            os.remove(report_path)
    if report is None:
        log("perfbench: d2perf failed (exit %s)" % rc)
        return 1

    for note in report["notes"]:
        print("# " + note)
    print("# %s seed %d: %.1f s" % (args.workload, args.seed,
                                    time.monotonic() - started))
    if not report["correct"]:
        for e in report["errors"]:
            log("perfbench: check failed: " + e)
        print(json.dumps({"correct": False, "attempted": report["attempted"],
                          "failed": report["failed"],
                          "metrics": {}}))
        return 1

    metrics = report["metrics"]
    expected = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        log("perfbench: d2perf metrics disagree with BENCHMARK.json: "
            "missing %s, extra %s, unit mismatch %s" % (
                sorted(set(expected) - set(got)),
                sorted(set(got) - set(expected)),
                sorted(n for n in got if n in expected
                       and got[n] != expected[n])))
        return 3
    for name, m in metrics.items():
        print("# %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": True, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
