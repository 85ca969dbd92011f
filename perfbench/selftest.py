#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at toy size, both modes.

    python3 perfbench/selftest.py

Run from the repository root. For each workload in BENCHMARK.json it runs
perfbench/run.py --toy with --trace 0 and --trace 1 and fails unless the
last line is a result object whose metrics are exactly the declared ones,
each a finite number with its declared unit, and whose correctness checks
passed. Also checks that perfbench/spec.json maps every declared metric.
"""

import json
import math
import os
import subprocess
import sys


def check_result(line, declared, where):
    errors = []
    try:
        result = json.loads(line)
    except ValueError:
        return ["%s: last line is not JSON: %r" % (where, line[:200])]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["%s: result keys %s" % (where, sorted(result))]
    if result["correct"] is not True:
        errors.append("%s: correctness checks failed" % where)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("%s: attempted %r" % (where, result["attempted"]))
    names = {m["name"] for m in declared}
    if set(result["metrics"]) != names:
        errors.append("%s: metric set differs: missing %s, extra %s" % (
            where, sorted(names - set(result["metrics"])),
            sorted(set(result["metrics"]) - names)))
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            continue
        if not got.get("unit") or got["unit"] != m["unit"]:
            errors.append("%s: %s has unit %r, declared %r" % (
                where, m["name"], got.get("unit"), m["unit"]))
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s value %r" % (where, m["name"], value))
    return errors


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join("perfbench", "spec.json")) as f:
        spec = json.load(f)
    errors = []
    mapped = {m["metric"] for m in spec["layer_map"]}
    for m in bench["per_layer"]:
        if m["name"] not in mapped:
            errors.append("spec.json layer_map lacks %s" % m["name"])
    for w in bench["workloads"]:
        if w["name"] not in spec["workloads"]:
            errors.append("spec.json lacks workload %s" % w["name"])
    for w in bench["workloads"]:
        for trace in (0, 1):
            where = "%s --trace %d" % (w["name"], trace)
            cmd = [sys.executable, "perfbench/run.py", "--workload", w["name"],
                   "--seed", "7", "--seconds", "1", "--trace", str(trace),
                   "--toy"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=600)
            lines = done.stdout.decode(errors="replace").strip().splitlines()
            if done.returncode != 0 or not lines:
                errors.append("%s: exit %d" % (where, done.returncode))
                continue
            declared = bench["per_layer" if trace else "end_to_end"]
            errs = check_result(lines[-1], declared, where)
            errors.extend(errs)
            print("%-40s %s" % (where, "FAIL" if errs else "ok"))
    for e in errors:
        print("selftest: " + e, file=sys.stderr)
    print("selftest: %s" % ("FAILED" if errors else "passed"))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
