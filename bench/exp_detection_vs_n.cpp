// E1 — Crash detection time vs system size.
//
// Workload: f = ceil(n/4) tolerated crashes, `crashes` actual crashes spread
// uniformly over the run, exponential link delays. For each detector the
// table reports mean / p99 / max detection latency over every
// (crash, correct observer) pair, plus the strong-completeness instant.
//
// Expected shape (paper lineage): the time-free detector's latency tracks
// its query cadence Delta + network delay and *drops below* fixed-timeout
// detection (bounded by Theta ~ 2*Delta) because a crash is noticed at the
// first unanswered query rather than after a conservatively-padded timer;
// the timer-based latency is flat in n, the async latency mildly improves
// with density of responders.
#include <iostream>

#include "common/argparse.h"
#include "exp_common.h"
#include "metrics/table.h"

using namespace mmrfd;
using metrics::Table;

int main(int argc, char** argv) {
  std::vector<std::uint32_t> sizes = {10, 20, 40, 60, 100};
  std::uint32_t horizon_s = 60, period_ms = 1000, timeout_ms = 2000;
  std::uint64_t seeds = 3;
  std::size_t crashes = 5;
  bool csv = false;
  ArgParser args("E1: detection time vs system size (n)");
  args.flag("sizes", sizes, "comma-separated n values")
      .flag("seeds", seeds, "seeds per configuration")
      .flag("crashes", crashes, "crashes per run")
      .flag("horizon", horizon_s, "simulated seconds per run")
      .flag("period", period_ms, "Delta / heartbeat period (ms)")
      .flag("timeout", timeout_ms, "baseline timeout Theta (ms)")
      .flag("csv", csv, "emit CSV instead of an aligned table");
  if (const auto status = args.parse(argc, argv)) return *status;
  for (const std::uint32_t n : sizes) {
    if (!bench::check_system("exp_detection_vs_n", "--sizes", n, (n + 3) / 4)) {
      return 2;
    }
  }

  std::cout << "# E1: failure detection time vs n  (f = n/4, " << crashes
            << " crashes, exponential delays, " << seeds << " seeds)\n\n";

  Table table({"n", "f", "detector", "mean_s", "p99_s", "max_s",
               "completeness_s", "false_susp"});

  for (const std::uint32_t n : sizes) {
    for (const std::string detector : {"mmr", "heartbeat", "phi"}) {
      SampleSet latencies;
      double worst_completeness = 0.0;
      bool complete = true;
      std::size_t false_susp = 0;
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        bench::Workload w;
        w.n = n;
        w.f = (n + 3) / 4;
        w.seed = seed;
        // The model tolerates at most f crashes; a workload exceeding f
        // would (legitimately) stall the quorum.
        w.crashes = std::min<std::size_t>(crashes, w.f);
        w.horizon = from_seconds(horizon_s);
        w.crash_window_end = w.horizon - from_seconds(20);
        w.period = from_millis(period_ms);
        w.timeout = from_millis(timeout_ms);
        const auto m = bench::run_detector(detector, w);
        bench::append_samples(latencies, m.detection_latencies);
        complete = complete && m.strong_completeness;
        if (m.completeness_latency) {
          worst_completeness =
              std::max(worst_completeness, *m.completeness_latency);
        }
        false_susp += m.false_suspicions;
      }
      table.add_row({Table::num(std::uint64_t{n}),
                     Table::num(std::uint64_t{(n + 3) / 4}), detector,
                     Table::num(latencies.mean()),
                     Table::num(latencies.percentile(99.0)),
                     Table::num(latencies.max()),
                     complete ? Table::num(worst_completeness) : "incomplete",
                     Table::num(std::uint64_t{false_susp})});
    }
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}
