// simulate — the general-purpose CLI runner: one command line = one fully
// reproducible simulated deployment, with tables or machine-readable traces.
//
//   ./build/examples/simulate --n=30 --f=7 --crashes=3 --delays=pareto
//       --mean_delay_ms=10 --pacing_ms=250 --horizon=60 --seed=42
//       --export=events.csv --jsonl=trace.jsonl          (one line)
//
// Prints the detection summary, accuracy metrics and the MP verdict; with
// --export/--jsonl also writes the raw traces for external analysis.
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "common/argparse.h"
#include "core/properties.h"
#include "metrics/analysis.h"
#include "metrics/export.h"
#include "metrics/table.h"
#include "runtime/cluster.h"

using namespace mmrfd;
using metrics::Table;

int main(int argc, char** argv) {
  std::uint32_t n = 20, f = 5, mean_delay_ms = 2, pacing_ms = 500,
                horizon_s = 30, spike_len = 5, spike_factor = 100;
  std::uint64_t seed = 1;
  std::size_t crash_count = 2;
  std::string delays = "exponential", export_path, jsonl_path;
  double pacing_jitter = 0;
  std::vector<std::uint32_t> fast;
  std::int64_t spike_at = -1;
  ArgParser args("simulate: run the asynchronous failure detector under a "
                 "configurable workload");
  args.flag("n", n, "system size")
      .flag("f", f, "max crashes tolerated (quorum = n - f)")
      .flag("seed", seed, "master seed (runs are pure functions of it)")
      .flag("crashes", crash_count, "actual crashes injected (capped at f)")
      .flag("delays", delays, "constant|uniform|exponential|lognormal|pareto")
      .flag("mean_delay_ms", mean_delay_ms, "mean one-way delay")
      .flag("pacing_ms", pacing_ms, "inter-query pacing Delta")
      .flag("pacing_jitter", pacing_jitter, "relative pacing jitter in [0,1)")
      .flag("fast", fast, "comma-separated ids biased fast (MP witnesses)")
      .flag("horizon", horizon_s, "simulated seconds")
      .flag("spike_at", spike_at, "spike start (s); -1 = no spike")
      .flag("spike_len", spike_len, "spike duration (s)")
      .flag("spike_factor", spike_factor, "spike delay multiplier")
      .flag("export", export_path, "write suspicion events CSV to this path")
      .flag("jsonl", jsonl_path, "write a JSONL trace to this path");
  if (const auto status = args.parse(argc, argv)) return *status;

  runtime::MmrClusterConfig cfg;
  try {
    cfg.delay_preset = net::parse_preset(delays);
  } catch (const std::invalid_argument& e) {
    std::cerr << "simulate: --delays: " << e.what() << "\n";
    return 2;
  }
  cfg.n = n;
  cfg.f = f;
  cfg.seed = seed;
  cfg.pacing = from_millis(pacing_ms);
  cfg.pacing_jitter = pacing_jitter;
  cfg.mean_delay = from_millis(mean_delay_ms);
  for (const std::uint32_t id : fast) cfg.fast_set.push_back(ProcessId{id});
  if (spike_at >= 0) {
    runtime::SpikeSpec spike;
    spike.start = from_seconds(spike_at);
    spike.end = spike.start + from_seconds(spike_len);
    spike.factor = spike_factor;
    cfg.spike = spike;
  }

  const auto horizon = from_seconds(horizon_s);
  runtime::MmrCluster cluster(cfg);
  const auto plan = runtime::CrashPlan::uniform(
      std::min<std::size_t>(crash_count, cfg.f), cfg.n, horizon / 4,
      horizon / 2, cfg.seed, cfg.fast_set);
  cluster.start(plan);
  cluster.run_for(horizon);

  // --- report -----------------------------------------------------------
  metrics::Analysis analysis(cluster.log(), cfg.n, horizon);
  std::cout << "workload: n=" << cfg.n << " f=" << cfg.f << " delays="
            << delays << " mean=" << mean_delay_ms << "ms Delta=" << pacing_ms
            << "ms seed=" << cfg.seed << "\n\n";

  Table crashes({"crashed", "at_s", "detected_by", "mean_latency_s",
                 "max_latency_s"});
  for (const auto& s : analysis.crash_summaries()) {
    crashes.add_row({"p" + std::to_string(s.subject.value),
                     Table::num(to_seconds(s.crash_at), 2),
                     Table::num(std::uint64_t{s.detected_by}) + "/" +
                         Table::num(std::uint64_t{s.observers}),
                     Table::num(s.latencies.mean()),
                     Table::num(s.latencies.max())});
  }
  if (crashes.rows() > 0) {
    crashes.print(std::cout);
  } else {
    std::cout << "(no crashes injected)\n";
  }

  std::cout << "\nstrong completeness: "
            << (analysis.strong_completeness() ? "satisfied" : "VIOLATED")
            << "\nfalse suspicions:    " << analysis.false_suspicions().size()
            << "\n";
  if (auto t = analysis.accuracy_stabilization()) {
    std::cout << "weak accuracy from:  " << to_seconds(*t) << " s\n";
  }
  if (auto t = analysis.full_accuracy_stabilization()) {
    std::cout << "globally clean from: " << to_seconds(*t) << " s\n";
  }

  const auto correct = analysis.correct();
  core::MpChecker checker(cluster.recorder(), cfg.f, correct);
  const auto verdict = checker.check();
  std::cout << "MP verdict:          "
            << (verdict.holds
                    ? (verdict.holds_perpetually ? "held perpetually (class S)"
                                                 : "held eventually (<>S)")
                    : "did not hold");
  if (verdict.holds) {
    std::cout << ", witness p" << verdict.witness.value << " from "
              << to_seconds(verdict.holds_from) << " s";
  }
  std::cout << "\nmessages sent:       "
            << cluster.network().stats().messages_sent << "\n";

  // --- optional trace files ---------------------------------------------
  if (!export_path.empty()) {
    std::ofstream out(export_path);
    metrics::export_events_csv(cluster.log(), out);
    std::cout << "wrote " << export_path << "\n";
  }
  if (!jsonl_path.empty()) {
    std::ofstream out(jsonl_path);
    metrics::export_jsonl(cluster.log(), &cluster.recorder(), out);
    std::cout << "wrote " << jsonl_path << "\n";
  }
  return 0;
}
