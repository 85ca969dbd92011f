#!/usr/bin/env python3
"""The repository benchmark: one command, one workload, one result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds perfbench/ (CMake, Release, into
.bench_build/perfbench; a no-op when up to date), runs the driver for the
named workload, forwards its metric table and correctness checks, and prints
as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics. The workloads, their seeds, the
layer-to-end-to-end map and the baseline numbers are in perfbench/spec.json.
--toy runs the workload at self-test size (see perfbench/selftest.py).
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("sim-churn-n1000", "live-crash-n16", "live-lossy-n16")
RESULT_TAG = "PERFBENCH_RESULT "
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Compiler and driver temporaries stay inside the checkout too.
TMP = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=TMP)


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def declared_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return spec["per_layer" if trace else "end_to_end"]


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "--target", "perfbench_driver",
              "-j", jobs]]
    # Once configured, the build step re-runs CMake itself when a
    # CMakeLists.txt changes.
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
                         "-DMMRFD_WERROR=OFF"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, env=ENV,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            fail("build step failed: " + " ".join(cmd))


def run_driver(args):
    work = os.path.join(BUILD, "runs", "%s-s%d-t%d" % (args.workload, args.seed,
                                                        args.trace))
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.toy:
        cmd.append("--toy")
    # Own session: whatever the driver leaves behind (it reaps its node
    # processes itself) is killed with the group before we return.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=ENV,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = b""
        print("perfbench: driver timed out", file=sys.stderr)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        proc.wait()
    if proc.returncode != 0 or not out:
        fail("driver failed (exit %s)" % proc.returncode, 1)
    return out.decode(errors="replace")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--toy", action="store_true")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    declared = declared_metrics(args.trace)
    os.makedirs(TMP, exist_ok=True)
    build()
    out = run_driver(args)

    result = None
    for line in out.splitlines():
        if line.startswith(RESULT_TAG):
            result = json.loads(line[len(RESULT_TAG):])
        else:
            print(line)
    if result is None:
        fail("driver printed no result", 1)

    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s missing or not in %s" % (m["name"], m["unit"]), 1)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    final = {"correct": bool(result["correct"]),
             "attempted": int(result["attempted"]),
             "failed": int(result["failed"]),
             "metrics": metrics}
    sys.stdout.flush()
    print(json.dumps(final))


if __name__ == "__main__":
    main()
