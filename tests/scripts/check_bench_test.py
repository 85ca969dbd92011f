#!/usr/bin/env python3
"""Exit codes of scripts/check_bench.py: its key-field and breakdown gates on
small crafted artifacts, and the committed BENCH_*.json files, each against
itself.

Usage: python3 tests/scripts/check_bench_test.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SCRIPT = os.path.join(ROOT, "scripts", "check_bench.py")

SCALE_ROW = {"n": 20, "f": 5, "seed": 1, "delta": True, "engine": "serial",
             "shards": 1, "horizon_s": 10, "spike": True,
             "events_fired": 1000, "bytes_per_query": 12.5}
# Two crashes whose observer-weighted latency mean, (4 x 40 + 2 x 70) / 6,
# is 50 ms: detection_mean_s x 1000.
LIVE_ROW = {"n": 8, "f": 2, "seed": 1, "delta": True,
            "strong_completeness": True, "detection_mean_s": 0.05,
            "trace_causal_violations": 0,
            "crash_breakdowns": [
                {"victim": 3, "observers": 4, "undetected": 0,
                 "latency_mean_ms": 40},
                {"victim": 5, "observers": 2, "undetected": 0,
                 "latency_mean_ms": 70}]}


class CheckBench(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def artifact(self, name, experiment, rows):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"experiment": experiment, "results": rows}, f)
        return path

    def exit_code(self, baseline, fresh):
        return subprocess.run([sys.executable, SCRIPT, baseline, fresh],
                              stdout=subprocess.DEVNULL,
                              check=False).returncode

    def test_key_fields_that_differ_fail(self):
        base = self.artifact("base.json", "exp_scale", [SCALE_ROW])
        same = self.artifact("same.json", "exp_scale", [dict(SCALE_ROW)])
        drift = dict(SCALE_ROW)
        del drift["spike"]
        drifted = self.artifact("drift.json", "exp_scale", [drift])
        self.assertEqual(self.exit_code(base, same), 0)
        self.assertEqual(self.exit_code(base, drifted), 1)
        self.assertEqual(self.exit_code(drifted, base), 1)

    def test_breakdown_mean_must_agree_with_analysis(self):
        base = self.artifact("base.json", "exp_live", [LIVE_ROW])
        self.assertEqual(self.exit_code(base, base), 0)
        rounded = dict(LIVE_ROW, detection_mean_s=0.0500002)
        self.assertEqual(self.exit_code(
            base, self.artifact("rounded.json", "exp_live", [rounded])), 0)
        off = dict(LIVE_ROW, detection_mean_s=0.0501)
        self.assertEqual(self.exit_code(
            base, self.artifact("off.json", "exp_live", [off])), 1)
        # A missed observer fails on its own; with strong completeness
        # unread the gate does not apply.
        missed = copy.deepcopy(LIVE_ROW)
        missed["crash_breakdowns"][0]["undetected"] = 1
        self.assertEqual(self.exit_code(
            base, self.artifact("missed.json", "exp_live", [missed])), 1)
        incomplete = dict(off, strong_completeness=False)
        self.assertEqual(self.exit_code(
            base,
            self.artifact("incomplete.json", "exp_live", [incomplete])), 0)

    def test_committed_artifacts_pass_against_themselves(self):
        for name in ("BENCH_scale.json", "BENCH_live.json"):
            path = os.path.join(ROOT, name)
            with self.subTest(artifact=name):
                self.assertEqual(self.exit_code(path, path), 0)


if __name__ == "__main__":
    unittest.main()
