// E2 — Detection time vs the fault-tolerance parameter f (fixed n).
//
// f shapes the protocol directly: a query terminates on n - f responses, so
// larger f means earlier termination (fewer responders awaited) and *faster*
// suspicion of silent processes — but also fewer witnesses per round. The
// timer-based baseline has no f dependence at all (flat reference line).
//
// Expected shape: async detection latency decreases gently as f grows
// (quorum shrinks => a round is not held back by stragglers), while the
// heartbeat line stays flat at ~Theta.
#include <iostream>

#include "common/argparse.h"
#include "exp_common.h"
#include "metrics/table.h"

using namespace mmrfd;
using metrics::Table;

int main(int argc, char** argv) {
  std::uint32_t n = 60, horizon_s = 60, period_ms = 1000, timeout_ms = 2000;
  std::uint64_t seeds = 3;
  std::size_t crashes = 5;
  bool csv = false;
  ArgParser args("E2: detection time vs f (n fixed)");
  args.flag("n", n, "system size")
      .flag("seeds", seeds, "seeds per configuration")
      .flag("crashes", crashes, "crashes per run")
      .flag("horizon", horizon_s, "simulated seconds per run")
      .flag("period", period_ms, "Delta / heartbeat period (ms)")
      .flag("timeout", timeout_ms, "baseline timeout Theta (ms)")
      .flag("csv", csv, "emit CSV");
  if (const auto status = args.parse(argc, argv)) return *status;
  if (!bench::check_system("exp_detection_vs_f", "--n", n, 0)) return 2;

  std::cout << "# E2: failure detection time vs f  (n = " << n
            << ", exponential delays)\n\n";

  Table table({"f", "quorum", "detector", "mean_s", "max_s", "false_susp"});
  const std::vector<std::uint32_t> fs = {1, 5, 10, 15, 20, 25, n / 2 - 1};

  for (const std::uint32_t f : fs) {
    if (f >= n) continue;  // the model needs f < n
    for (const std::string detector : {"mmr", "heartbeat"}) {
      SampleSet latencies;
      std::size_t false_susp = 0;
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        bench::Workload w;
        w.n = n;
        w.f = f;
        w.seed = seed;
        w.crashes = std::min<std::size_t>(crashes, f);
        w.horizon = from_seconds(horizon_s);
        w.crash_window_end = w.horizon - from_seconds(20);
        w.period = from_millis(period_ms);
        w.timeout = from_millis(timeout_ms);
        const auto m = bench::run_detector(detector, w);
        bench::append_samples(latencies, m.detection_latencies);
        false_susp += m.false_suspicions;
      }
      table.add_row({Table::num(std::uint64_t{f}),
                     Table::num(std::uint64_t{n - f}), detector,
                     Table::num(latencies.mean()),
                     Table::num(latencies.max()),
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
