// E8 — Accuracy convergence: how long after the network stabilizes does the
// detector stop wrongly suspecting anyone?
//
// The run starts inside a network-wide delay storm (everything `factor`x
// slower) that ends at `calm_at`; MP can only hold after that. We measure
// the lag between calm_at and the last wrongful-suspicion repair — the
// constructive content of "eventual" weak accuracy.
//
// Expected shape: the timer-based detectors recover within ~Theta once real
// heartbeats flow again. The async detector needs a few Delta-long query
// rounds: stale tagged suspicions keep circulating until each victim's
// mistake floods, so its *clean* lag is a small multiple of Delta and can
// exceed a well-tuned Theta — mirroring the paper's mobility figure, where
// false suspicions transiently rise after reconnection before the mistakes
// propagate. The async detector's win is on the way *into* the storm (far
// fewer wrongful suspicions; exactly zero under a uniform slowdown), not on
// raw post-storm repair speed.
#include <iostream>

#include "common/argparse.h"
#include "exp_common.h"
#include "metrics/table.h"

using namespace mmrfd;
using metrics::Table;

int main(int argc, char** argv) {
  std::uint32_t n = 20, f = 5, calm_at = 20, factor = 5000, horizon_s = 80,
                period_ms = 1000, timeout_ms = 2000;
  std::uint64_t seeds = 5;
  bool csv = false;
  ArgParser args("E8: accuracy convergence lag after a network-wide storm");
  args.flag("n", n, "system size")
      .flag("f", f, "fault tolerance")
      .flag("seeds", seeds, "seeds per detector")
      .flag("calm_at", calm_at, "storm end (s)")
      .flag("factor", factor, "storm delay multiplier (storm delays must "
                              "dwarf every timeout for the contrast to show)")
      .flag("horizon", horizon_s, "simulated seconds")
      .flag("period", period_ms, "Delta / heartbeat period (ms)")
      .flag("timeout", timeout_ms, "baseline Theta (ms)")
      .flag("csv", csv, "emit CSV");
  if (const auto status = args.parse(argc, argv)) return *status;
  if (!bench::check_system("exp_accuracy_convergence", "--n", n, f)) return 2;

  std::cout << "# E8: time from network calm (t = " << calm_at
            << " s) to last wrongful-suspicion repair\n\n";

  Table table({"detector", "runs_clean", "mean_clean_lag_s",
               "max_clean_lag_s", "mean_weak_lag_s", "false_susp_total"});
  for (const std::string detector : {"mmr", "heartbeat", "phi", "adaptive"}) {
    SampleSet clean_lags;
    SampleSet weak_lags;
    std::size_t clean = 0;
    std::size_t fs_total = 0;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      bench::Workload w;
      w.n = n;
      w.f = f;
      w.seed = seed;
      w.crashes = 0;
      w.horizon = from_seconds(horizon_s);
      // Randomized delays: under a *constant*-delay storm the async detector
      // sees zero false suspicions (a uniform slowdown just stretches its
      // rounds), which is striking but degenerate for a convergence plot.
      w.preset = net::DelayPreset::kExponential;
      w.period = from_millis(period_ms);
      w.timeout = from_millis(timeout_ms);
      runtime::SpikeSpec storm;
      storm.start = kTimeZero;
      storm.end = from_seconds(calm_at);
      storm.factor = factor;
      w.spike = storm;  // affects everyone: affected empty
      const auto m = bench::run_detector(detector, w);
      fs_total += m.false_suspicions;
      if (m.clean_at) {
        ++clean;
        clean_lags.add(std::max(0.0, *m.clean_at - calm_at));
      }
      if (m.accuracy_stable_at) {
        weak_lags.add(std::max(0.0, *m.accuracy_stable_at - calm_at));
      }
    }
    table.add_row({detector,
                   Table::num(std::uint64_t{clean}) + "/" +
                       Table::num(std::uint64_t{seeds}),
                   Table::num(clean_lags.mean()), Table::num(clean_lags.max()),
                   Table::num(weak_lags.mean()),
                   Table::num(std::uint64_t{fs_total})});
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}
