// E3 — False-suspicion dynamics under a transient delay spike.
//
// One process's links slow down by `factor` for `spike_len` seconds (a
// congested region / overloaded host — the failure-free disturbance every
// timeout-based detector hates). The table is a time series: concurrently
// active wrongful (observer, subject) suspicions, sampled once a second.
//
// Expected shape: all detectors false-suspect the slowed process during the
// spike (its responses/heartbeats stop landing in time). Afterwards the
// async detector repairs via the mistake mechanism within ~Delta + delivery
// time and returns to exactly zero; fixed-timeout heartbeat also recovers
// (bounded by Theta) but shows a taller plateau; an aggressive Theta would
// never recover on heavy-tailed links (see E5).
#include <iostream>

#include "common/argparse.h"
#include "exp_common.h"
#include "metrics/table.h"

using namespace mmrfd;
using metrics::Table;

namespace {

// Value of a step series at time t (last step at or before t).
std::int64_t series_at(const std::vector<metrics::FalseSuspicionPoint>& s,
                       TimePoint t) {
  std::int64_t v = 0;
  for (const auto& p : s) {
    if (p.when > t) break;
    v = p.active;
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t n = 20, f = 5, spike_at = 20, spike_len = 10, factor = 5000,
                horizon_s = 60, period_ms = 1000, timeout_ms = 2000;
  std::uint64_t seed = 1;
  bool csv = false;
  ArgParser args("E3: active false suspicions over time under a delay spike");
  args.flag("n", n, "system size")
      .flag("f", f, "fault tolerance")
      .flag("seed", seed, "workload seed")
      .flag("spike_at", spike_at, "spike start (s)")
      .flag("spike_len", spike_len, "spike duration (s)")
      .flag("factor", factor, "delay multiplier during the spike (large "
                              "enough that the node is effectively absent, "
                              "like the paper's moving node)")
      .flag("horizon", horizon_s, "simulated seconds")
      .flag("period", period_ms, "Delta / heartbeat period (ms)")
      .flag("timeout", timeout_ms, "baseline timeout Theta (ms)")
      .flag("csv", csv, "emit CSV");
  if (const auto status = args.parse(argc, argv)) return *status;
  if (!bench::check_system("exp_false_suspicions", "--n", n, f)) return 2;

  std::cout << "# E3: false suspicions over time (p" << n - 1
            << "'s links x" << factor << " slower during [" << spike_at
            << "s, " << spike_at + spike_len << "s))\n\n";

  auto make_workload = [&] {
    bench::Workload w;
    w.n = n;
    w.f = f;
    w.seed = seed;
    w.crashes = 0;
    w.horizon = from_seconds(horizon_s);
    w.preset = net::DelayPreset::kConstant;
    w.period = from_millis(period_ms);
    w.timeout = from_millis(timeout_ms);
    runtime::SpikeSpec spike;
    spike.start = from_seconds(spike_at);
    spike.end = from_seconds(spike_at + spike_len);
    spike.factor = factor;
    spike.affected = {ProcessId{n - 1}};
    w.spike = spike;
    return w;
  };

  const auto mmr = bench::run_mmr(make_workload());
  const auto hb = bench::run_detector("heartbeat", make_workload());
  const auto phi = bench::run_detector("phi", make_workload());

  Table table({"t_s", "mmr_active", "heartbeat_active", "phi_active"});
  for (double t = 0.0; t <= horizon_s; t += 1.0) {
    table.add_row({Table::num(t, 0),
                   Table::num(series_at(mmr.false_series, from_seconds(t))),
                   Table::num(series_at(hb.false_series, from_seconds(t))),
                   Table::num(series_at(phi.false_series, from_seconds(t)))});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  std::cout << "\nrepair summary (wrongful suspicion durations, s):\n";
  Table rep({"detector", "events", "repaired", "mean_repair_s",
             "max_repair_s"});
  auto add = [&](const std::string& name, const bench::RunMetrics& m) {
    rep.add_row({name, Table::num(std::uint64_t{m.false_suspicions}),
                 Table::num(std::uint64_t{m.mistake_durations.count()}),
                 Table::num(m.mistake_durations.mean()),
                 Table::num(m.mistake_durations.max())});
  };
  add("mmr", mmr);
  add("heartbeat", hb);
  add("phi", phi);
  rep.print(std::cout);
  return 0;
}
