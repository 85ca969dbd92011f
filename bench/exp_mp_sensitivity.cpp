// E5 — Sensitivity of the behavioral property MP (and of timeout choices)
// to the delay distribution.
//
// The paper's central trade: instead of assuming timing bounds, the async
// detector assumes a *pattern* — some process is a winning responder for
// f+1 processes, eventually. This experiment sweeps delay distributions and
// the engineered fast-set bias and reports (a) how often MP actually holds
// (checker verdict over seeds), (b) resulting accuracy, and — for contrast —
// (c) the false-suspicion count of a fixed-timeout detector whose Theta was
// tuned for the *constant* distribution and never re-tuned.
//
// Expected shape: with a (bidirectional) fast-set bias MP holds on every
// distribution — the pattern is engineerable — and weak accuracy always
// stabilizes (the witness is eventually trusted by everyone). Without the
// bias MP only survives on near-deterministic delays: under iid randomness
// *no* process wins every suffix, which is exactly the paper's point that
// the assumption is behavioral, not free. Two honest footnotes the table
// also shows: (a) non-witness processes still churn suspicions under heavy
// tails (flooding amplifies every local miss n-fold) even while weak
// accuracy holds via the witness; (b) a generously over-provisioned Theta
// (here 30x the mean delay) keeps the heartbeat quiet on these
// distributions — its cost is detection latency (E1), not false alarms.
#include <iostream>

#include "common/argparse.h"
#include "exp_common.h"
#include "metrics/table.h"

using namespace mmrfd;
using metrics::Table;

int main(int argc, char** argv) {
  std::uint32_t n = 20, f = 5, horizon_s = 60, mean_delay_ms = 20,
                period_ms = 200, timeout_ms = 600;
  std::uint64_t seeds = 5;
  bool csv = false;
  ArgParser args("E5: MP verdicts and accuracy vs delay distribution");
  args.flag("n", n, "system size")
      .flag("f", f, "fault tolerance")
      .flag("seeds", seeds, "seeds per configuration")
      .flag("horizon", horizon_s, "simulated seconds")
      .flag("mean_delay", mean_delay_ms, "mean one-way delay (ms)")
      .flag("period", period_ms, "Delta / heartbeat period (ms)")
      .flag("timeout", timeout_ms, "untuned baseline Theta (ms)")
      .flag("csv", csv, "emit CSV");
  if (const auto status = args.parse(argc, argv)) return *status;
  if (!bench::check_system("exp_mp_sensitivity", "--n", n, f)) return 2;

  std::cout << "# E5: does MP hold, and what does accuracy cost, per delay "
               "distribution?\n"
            << "# (n = " << n << ", f = " << f << ", mean delay "
            << mean_delay_ms << " ms, " << seeds
            << " seeds; baseline Theta fixed at " << timeout_ms << " ms)\n\n";

  Table table({"delays", "fast_bias", "mp_holds", "mp_perpetual",
               "async_false_susp", "async_stable", "hb_false_susp"});

  for (auto preset :
       {net::DelayPreset::kConstant, net::DelayPreset::kUniform,
        net::DelayPreset::kExponential, net::DelayPreset::kLogNormal,
        net::DelayPreset::kPareto}) {
    for (const bool bias : {true, false}) {
      std::size_t mp_holds = 0;
      std::size_t mp_perpetual = 0;
      std::size_t async_fs = 0;
      std::size_t stable_runs = 0;
      std::size_t hb_fs = 0;
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        bench::Workload w;
        w.n = n;
        w.f = f;
        w.seed = seed;
        w.crashes = 0;
        w.horizon = from_seconds(horizon_s);
        w.preset = preset;
        w.mean_delay = from_millis(mean_delay_ms);
        w.period = from_millis(period_ms);
        w.timeout = from_millis(timeout_ms);
        if (bias) {
          w.fast_set = {ProcessId{0}};
          w.fast_factor = 0.05;
        }
        const auto m = bench::run_mmr(w);
        if (m.mp && m.mp->holds) ++mp_holds;
        if (m.mp && m.mp->holds_perpetually) ++mp_perpetual;
        async_fs += m.false_suspicions;
        if (m.accuracy_stable_at) ++stable_runs;
        const auto h = bench::run_detector("heartbeat", w);
        hb_fs += h.false_suspicions;
      }
      table.add_row({net::preset_name(preset), bias ? "yes" : "no",
                     Table::num(std::uint64_t{mp_holds}) + "/" +
                         Table::num(std::uint64_t{seeds}),
                     Table::num(std::uint64_t{mp_perpetual}) + "/" +
                         Table::num(std::uint64_t{seeds}),
                     Table::num(std::uint64_t{async_fs}),
                     Table::num(std::uint64_t{stable_runs}) + "/" +
                         Table::num(std::uint64_t{seeds}),
                     Table::num(std::uint64_t{hb_fs})});
    }
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}
