#!/usr/bin/env python3
"""Exit statuses of every flag-taking binary's command line: --help exits 0
and lists the binary's flags; an unknown flag, a value that does not convert
whole into its flag's type, and a value that fails a semantic check (a
system size the model rejects included) each exit 2 with one stderr line
naming the flag. Every such case ends in the flag parser or a semantic
check, so it starts no cluster, node or socket. One case runs: a sweep that
leaves out the points the model rejects (n = 2, ~10 ms).

Usage: python3 tests/scripts/cli_flags_test.py <binary>...
       (each path's file name says which binary it is)
"""

import os
import subprocess
import sys
import unittest

# Each binary's flags, in --help order, and one numeric flag (mmrfd-trace has
# none: its boolean stands in).
FLAGS = {
    "exp_ablation": ("n f seeds horizon csv", "n"),
    "exp_accuracy_convergence": (
        "n f seeds calm_at factor horizon period timeout csv", "n"),
    "exp_consensus": ("n f seeds csv", "n"),
    "exp_detection_vs_f": (
        "n seeds crashes horizon period timeout csv", "n"),
    "exp_detection_vs_n": (
        "sizes seeds crashes horizon period timeout csv", "seeds"),
    "exp_false_suspicions": (
        "n f seed spike_at spike_len factor horizon period timeout csv", "n"),
    "exp_live": ("sizes seeds run period crashes restart mode base-port "
                 "node-bin report-dir flush-ms out csv trace", "run"),
    "exp_message_cost": ("sizes horizon period csv", "horizon"),
    "exp_mp_sensitivity": (
        "n f seeds horizon mean_delay period timeout csv", "n"),
    "exp_omega": ("n horizon seed csv", "n"),
    "exp_scale": ("sizes seeds horizon period spike mode engine shards log "
                  "jobs out csv", "shards"),
    "exp_tag_ablation": (
        "n f seeds storm_len factor horizon period csv", "n"),
    "simulate": ("n f seed crashes delays mean_delay_ms pacing_ms "
                 "pacing_jitter fast horizon spike_at spike_len spike_factor "
                 "export jsonl", "n"),
    "mmrfd-node": ("self n f base-port pacing-ms resend-ms delta report "
                   "flush-ms control-fd run-s giveup fault-drop fault-corrupt "
                   "fault-truncate fault-seed trace-cap", "n"),
    "mmrfd-trace": ("json out", "json"),
}

# Values that once wrapped, aborted or read as false, and semantic checks,
# each with the flag its error line must name.
BAD = [
    ("exp_omega", ["--n", "4294967299"], "--n"),
    ("exp_scale", ["--shards", "4294967298"], "--shards"),
    ("exp_scale", ["--sizes", "20", "--shards", "0"], "--shards"),
    ("exp_scale", ["--sizes", "1"], "--sizes"),
    ("exp_message_cost", ["--sizes", "10,,20"], "--sizes"),
    ("exp_message_cost", ["--sizez", "10"], "--sizez"),
    ("exp_detection_vs_n", ["--seeds", "-1"], "--seeds"),
    ("exp_detection_vs_n", ["--sizes", "10,-5"], "--sizes"),
    ("exp_live", ["--trace", "flase"], "--trace"),
    ("exp_live", ["--sizes", "513"], "--sizes"),
    ("exp_live", ["--base-port", "70000"], "--base-port"),
    ("simulate", ["--fast", "1,x"], "--fast"),
    ("simulate", ["--delays", "gaussian"], "--delays"),
    ("mmrfd-node", ["--self", "0", "--n", "4294967298", "--f", "1"], "--n"),
    ("mmrfd-node", ["--self", "0", "--n", "3", "--f", "1", "--resend-ms",
                    "0"], "resend-ms"),
    # Sizes the model rejects (n < 2 or f >= n), which aborted or crashed.
    ("exp_detection_vs_n", ["--sizes", "1"], "--sizes"),
    ("exp_message_cost", ["--sizes", "1"], "--sizes"),
    ("exp_detection_vs_f", ["--n", "1"], "--n"),
    ("exp_ablation", ["--n", "4", "--f", "4"], "--f"),
    ("exp_ablation", ["--n", "1", "--f", "0"], "--n"),
    ("exp_ablation", ["--n", "2", "--f", "1"], "--n"),
    ("exp_tag_ablation", ["--n", "4", "--f", "4"], "--f"),
    ("exp_mp_sensitivity", ["--n", "4", "--f", "4"], "--f"),
    ("exp_accuracy_convergence", ["--n", "4", "--f", "4"], "--f"),
    ("exp_false_suspicions", ["--n", "4", "--f", "4"], "--f"),
    ("exp_omega", ["--n", "1"], "--n"),
    ("exp_omega", ["--n", "0"], "--n"),
    # Consensus needs f < n/2; NDEBUG compiled the harness's assert out.
    ("exp_consensus", ["--n", "4", "--f", "2"], "--f"),
]

BINARIES = {}


def run(name, args):
    try:
        return subprocess.run([BINARIES[name]] + args, capture_output=True,
                              text=True, timeout=30)
    except subprocess.TimeoutExpired as e:
        raise AssertionError(f"{name} {' '.join(args)} ran past the parser")\
            from e


class CliFlags(unittest.TestCase):
    def test_every_binary_is_under_test(self):
        self.assertEqual(sorted(BINARIES), sorted(FLAGS))

    def test_help_exits_zero_and_lists_the_flags(self):
        for name, (flags, _) in FLAGS.items():
            with self.subTest(name):
                r = run(name, ["--help"])
                self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
                listed = [line.split()[0][2:] for line in r.stdout.splitlines()
                          if line.startswith("  --")]
                self.assertEqual(listed, flags.split())

    def test_unknown_flag_exits_two(self):
        for name in FLAGS:
            with self.subTest(name):
                r = run(name, ["--no-such-flag=1"])
                self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
                self.assertIn("--no-such-flag", r.stderr)
                self.assertEqual(r.stdout, "")

    def test_non_number_exits_two(self):
        for name, (_, numeric) in FLAGS.items():
            with self.subTest(name):
                r = run(name, [f"--{numeric}", "x"])
                self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
                self.assertIn(f"--{numeric}", r.stderr)
                self.assertEqual(r.stdout, "")

    def test_bad_values_exit_two(self):
        for name, args, flag in BAD:
            with self.subTest(f"{name} {' '.join(args)}"):
                r = run(name, args)
                self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
                self.assertIn(flag, r.stderr)
                self.assertEqual(len(r.stderr.splitlines()), 1, r.stderr)
                self.assertNotIn("wrote", r.stdout)

    def test_sweep_leaves_out_points_the_model_rejects(self):
        # E2's f sweep is fixed; at n = 2 only f = 1 and f = n/2 - 1 = 0 fit.
        r = run("exp_detection_vs_f", ["--n", "2", "--seeds", "1",
                                       "--horizon", "30"])
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        rows = [line.split("|")[1].strip() for line in r.stdout.splitlines()
                if line.startswith("| ") and not line.startswith("| f ")]
        self.assertEqual(rows, ["1", "1", "0", "0"])


if __name__ == "__main__":
    for path in sys.argv[1:]:
        BINARIES[os.path.basename(path)] = path
    unittest.main(argv=sys.argv[:1])
