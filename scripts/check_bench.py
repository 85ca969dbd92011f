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
  * grace_mean_ms       — higher is a regression (the share of
                          pacing_mean_ms after the detecting round's quorum)
  * node_cpu_us_per_round        — higher is a regression (exp_live: node
  * vol_ctx_switches_per_round     user + system CPU and context switches
  * invol_ctx_switches_per_round   per finished round, from wait4's rusage)
  * peak_rss_mb         — higher is a regression (exp_scale: the config's
                          worker process's peak resident set, from wait4;
                          exp_live: the largest of any node incarnation's,
                          its VmHWM read just before the Supervisor stops it)
  * first_round_waves   — higher is a regression (exp_live: node
                          incarnations whose first round waited for a resend
                          wave; a count whose baseline is 0, so any fresh
                          nonzero value is flagged)

The key includes the engine/shards columns exp_scale emits, the simulated
horizon and whether the run injected the delay spike, so a serial and a
sharded run of the same (n, f, seed), a 15 s and a 20 s run, or a run with
and one without the spike never get compared to each other. The two
artifacts' rows must hold the same key fields: where they differ, no row
can match and nothing would be compared, so the script names the fields
and exits 1.

Timing bands are warn-only by default: bench hardware — CI runners above
all — is far too noisy to gate merges on, so the output is a trend signal
for humans. Pass --strict to exit 1 on any regression once a quieter rig
exists.

Correctness columns are not timings and always gate, --strict or not:
exit 1 when any fresh row has a nonzero

  * trace_causal_violations — matched tx -> rx pairs the assembled trace
                              puts in the wrong order
  * malformed               — exp_live: datagrams the codec refused
                              (codec.malformed: undecodable bytes, or a
                              source address that names no member)
  * truncated               — exp_live: datagrams larger than the receive
                              slot (udp.truncated)
  * recv_errors             — exp_live: failed socket receives
                              (udp.recv_errors)

or when an exp_live row reads strong_completeness true while one of its
crash_breakdowns entries reads a nonzero

  * undetected              — observers the assembled trace shows never
                              suspecting the victim for good, though the
                              nodes' reports show every survivor did (a
                              ring that wrapped past the suspect_add)

or, where every entry reads 0 undetected, when the observer-weighted mean
of the entries' latency_mean_ms differs from detection_mean_s x 1000 by
more than a relative 1e-5 (the artifact's 6-digit rounding): the rings and
the kill stamps read one host clock, so the trace's latencies are
metrics::Analysis's own,

and, in exp_scale artifacts, when a matched row differs at all in one of
the fixed-seed columns (EXACT below). A simulated run is a pure function of
its configuration, so any difference there is a behaviour change: commit
the regenerated artifact with the change that causes it.

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
    "grace_mean_ms": "down",
    "node_cpu_us_per_round": "down",
    "vol_ctx_switches_per_round": "down",
    "invol_ctx_switches_per_round": "down",
    "peak_rss_mb": "down",
    "first_round_waves": "down",
}
# Counts compared as counts: from a baseline of 0, any rise is flagged.
COUNTS = ("first_round_waves",)
KEY_FIELDS = ("n", "f", "seed", "delta", "engine", "shards", "horizon_s",
              "spike")
# exp_scale columns that a fixed seed determines: they must match exactly.
EXACT = (
    "events_fired",
    "messages_sent",
    "bytes_sent",
    "bytes_per_query",
    "false_suspicions",
    "detection_mean_s",
    "detection_p99_s",
    "detection_max_s",
)
# Columns that must read 0 in every fresh row.
MUST_BE_ZERO = ("trace_causal_violations", "malformed", "truncated",
                "recv_errors")
# exp_live prints 6 significant digits: two such roundings of one mean stay
# within this relative distance.
BREAKDOWN_RTOL = 1e-5


def load(path):
    """Returns (experiment name, result rows)."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"check_bench: cannot read {path}: {e}")
    rows = doc.get("results", [])
    if not isinstance(rows, list):
        sys.exit(f"check_bench: {path}: 'results' is not a list")
    return doc.get("experiment"), rows


def row_key(row):
    return tuple((k, row[k]) for k in KEY_FIELDS if k in row)


def fmt_key(key):
    return " ".join(f"{k}={v}" for k, v in key)


def key_fields(rows):
    return {k for r in rows for k in KEY_FIELDS if k in r}


def breakdown_violations(row, key):
    """Prints and counts the violations of a row's crash_breakdowns: an
    observer the trace missed, or, with none missed, a latency mean off
    metrics::Analysis's. Applies only where the reports read strong
    completeness."""
    if row.get("strong_completeness") is not True:
        return 0
    breakdowns = row.get("crash_breakdowns", [])
    violations = 0
    for crash in breakdowns:
        if crash.get("undetected", 0) != 0:
            violations += 1
            print(f"[VIOLATION] {fmt_key(key)} crash_breakdowns "
                  f"victim {crash.get('victim')}: undetected "
                  f"{crash['undetected']} (the reports read strong "
                  "completeness)")
    observers = sum(crash.get("observers", 0) for crash in breakdowns)
    if violations or observers == 0:
        return violations
    traced = sum(float(crash["latency_mean_ms"]) * crash["observers"]
                 for crash in breakdowns) / observers
    analysis = float(row["detection_mean_s"]) * 1000
    if abs(traced - analysis) > BREAKDOWN_RTOL * abs(analysis):
        violations += 1
        print(f"[VIOLATION] {fmt_key(key)} crash_breakdowns: latency mean "
              f"{traced:.6g} ms, detection_mean_s {analysis:.6g} ms (the "
              "trace must agree with metrics::Analysis)")
    return violations


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

    _, baseline_rows = load(args.baseline)
    baseline = {row_key(r): r for r in baseline_rows}
    experiment, fresh_rows = load(args.fresh)
    exact = EXACT if experiment == "exp_scale" else ()

    regressions = 0
    compared = 0
    unmatched = 0
    violations = 0
    base_fields = key_fields(baseline_rows)
    fresh_fields = key_fields(fresh_rows)
    if base_fields != fresh_fields:
        violations += 1
        print("[VIOLATION] key fields differ, so no row can match: only the "
              f"baseline's rows hold {sorted(base_fields - fresh_fields)}, "
              f"only the fresh rows hold {sorted(fresh_fields - base_fields)}")
    for row in fresh_rows:
        key = row_key(row)
        for column in MUST_BE_ZERO:
            if float(row.get(column, 0)) != 0:
                violations += 1
                print(f"[VIOLATION] {fmt_key(key)} {column}: {row[column]} "
                      "(must be 0)")
        violations += breakdown_violations(row, key)
        base = baseline.get(key)
        if base is None:
            unmatched += 1
            print(f"[skip] {fmt_key(key)}: no baseline row")
            continue
        for column in exact:
            if column not in row or column not in base:
                continue
            if float(row[column]) != float(base[column]):
                violations += 1
                print(f"[VIOLATION] {fmt_key(key)} {column}: "
                      f"{base[column]} -> {row[column]} (fixed seed: must "
                      "match exactly)")
        for metric, direction in METRICS.items():
            if metric in exact or metric not in row or metric not in base:
                continue
            old, new = float(base[metric]), float(row[metric])
            if old <= 0 and metric not in COUNTS:
                continue
            compared += 1
            if old <= 0:
                worse = new > 0
                versus = "baseline 0"
            else:
                ratio = new / old
                worse = (
                    ratio < 1 - args.tolerance
                    if direction == "up"
                    else ratio > 1 + args.tolerance
                )
                versus = f"{ratio:.0%} of baseline"
            tag = "REGRESSION" if worse else "ok"
            if worse:
                regressions += 1
            print(
                f"[{tag}] {fmt_key(key)} {metric}: "
                f"{old:.4g} -> {new:.4g} ({versus})"
            )

    print(
        f"\ncheck_bench: {compared} metric(s) compared, "
        f"{regressions} regression(s), {unmatched} fresh row(s) without a "
        f"baseline (tolerance {args.tolerance:.0%})"
    )
    if regressions and not args.strict:
        print("check_bench: warn-only mode — not failing on timing bands")
    if violations:
        print(f"check_bench: {violations} violation(s) of the key fields or "
              "of a must-be-zero, crash-breakdown or fixed-seed column")
    return 1 if violations or (regressions and args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
