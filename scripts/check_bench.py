#!/usr/bin/env python3
"""Tolerance-band comparison of a fresh BENCH_*.json against a committed one.

Matches result rows between two exp_scale/exp_live JSON artifacts by their
configuration key and flags metric movements outside a tolerance band:

  * events_per_sec      — lower is a regression
  * bytes_per_query     — higher is a regression
  * wire_bytes_per_query — higher is a regression (true wire cost: framing,
                           retransmits and ACKs included)
  * detection_mean_s    — higher is a regression
  * detection_p50_s     — higher is a regression
  * detection_p99_s     — higher is a regression
  * round_rtt_p50_ms    — higher is a regression
  * round_rtt_p99_ms    — higher is a regression
  * pacing_mean_ms      — higher is a regression (detection-latency share
  * resend_wait_mean_ms   spent waiting for the round to open, on resend
  * wire_mean_ms          waves, and on the wire — from the assembled
                          cross-node trace; the three sum to the latency)

The key includes the engine/shards columns exp_scale emits, so a serial and
a sharded run of the same (n, f, seed) never get compared to each other.

Timing bands are warn-only by default: bench hardware — CI runners above
all — is far too noisy to gate merges on, so the output is a trend signal
for humans. Pass --strict to exit 1 on any regression once a quieter rig
exists.

Correctness columns are not timings and always gate, --strict or not:
exit 1 when any fresh row has a nonzero

  * trace_causal_violations — matched tx -> rx pairs the assembled trace
                              puts in the wrong order

Usage:
  scripts/check_bench.py BENCH_scale.json fresh.json [--tolerance 0.5]
"""

import argparse
import json
import sys

# metric -> direction ("up" = larger is better, "down" = smaller is better)
METRICS = {
    "events_per_sec": "up",
    "bytes_per_query": "down",
    "wire_bytes_per_query": "down",
    "detection_mean_s": "down",
    "detection_p50_s": "down",
    "detection_p99_s": "down",
    "round_rtt_p50_ms": "down",
    "round_rtt_p99_ms": "down",
    "pacing_mean_ms": "down",
    "resend_wait_mean_ms": "down",
    "wire_mean_ms": "down",
}
KEY_FIELDS = ("n", "f", "seed", "delta", "reliable", "engine", "shards")
# Columns that must read 0 in every fresh row.
MUST_BE_ZERO = ("trace_causal_violations",)


def load_rows(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"check_bench: cannot read {path}: {e}")
    rows = doc.get("results", [])
    if not isinstance(rows, list):
        sys.exit(f"check_bench: {path}: 'results' is not a list")
    return rows


def row_key(row):
    return tuple((k, row[k]) for k in KEY_FIELDS if k in row)


def fmt_key(key):
    return " ".join(f"{k}={v}" for k, v in key)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed artifact (the reference)")
    parser.add_argument("fresh", help="artifact from the current run")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="allowed relative slack, e.g. 0.5 = flag a metric worse than "
        "the baseline by more than 50%% (default: %(default)s)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on any regression instead of warn-only",
    )
    args = parser.parse_args()

    baseline = {row_key(r): r for r in load_rows(args.baseline)}
    fresh_rows = load_rows(args.fresh)

    regressions = 0
    compared = 0
    unmatched = 0
    violations = 0
    for row in fresh_rows:
        key = row_key(row)
        for column in MUST_BE_ZERO:
            if float(row.get(column, 0)) != 0:
                violations += 1
                print(f"[VIOLATION] {fmt_key(key)} {column}: {row[column]} "
                      "(must be 0)")
        base = baseline.get(key)
        if base is None:
            unmatched += 1
            print(f"[skip] {fmt_key(key)}: no baseline row")
            continue
        for metric, direction in METRICS.items():
            if metric not in row or metric not in base:
                continue
            old, new = float(base[metric]), float(row[metric])
            if old <= 0:
                continue
            compared += 1
            ratio = new / old
            worse = (
                ratio < 1 - args.tolerance
                if direction == "up"
                else ratio > 1 + args.tolerance
            )
            tag = "REGRESSION" if worse else "ok"
            if worse:
                regressions += 1
            print(
                f"[{tag}] {fmt_key(key)} {metric}: "
                f"{old:.4g} -> {new:.4g} ({ratio:.0%} of baseline)"
            )

    print(
        f"\ncheck_bench: {compared} metric(s) compared, "
        f"{regressions} regression(s), {unmatched} fresh row(s) without a "
        f"baseline (tolerance {args.tolerance:.0%})"
    )
    if regressions and not args.strict:
        print("check_bench: warn-only mode — not failing on timing bands")
    if violations:
        print(f"check_bench: {violations} correctness violation(s)")
    return 1 if violations or (regressions and args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
