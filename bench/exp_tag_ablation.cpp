// E9 — Why the tags and mistakes exist: full protocol vs the tag-free
// variant under an unstable prefix.
//
// Both detectors run the identical query-response exchange; the tag-free
// SimpleDetectorCore merely suspects known \ rec_from and clears a suspicion
// on direct contact, and must IGNORE the piggybacked suspicion sets — with
// no tags there is no way to order relayed information, so adopting it
// would poison the detector with uncorrectable stale suspicions (unit test:
// SimpleDetector.ThirdPartySuspicionsAreNotAdopted).
//
// Honest expected shape: in the fully connected model, where every process
// observes every other *directly* each round, the tag-free variant shows
// FEWER wrongful-suspicion events — flooding amplifies every local miss to
// all n observers, while tag-free suspicions stay local and are repaired at
// the next direct contact. What the tags buy is not full-mesh churn but the
// ability to circulate suspicion state at all: FD outputs that include
// remotely-learned suspicions with a sound freshness order (the property
// any multi-hop or gossip-style deployment needs), self-defence that
// travels (a witness's mistake reaches processes it never responds to
// quickly), and the class-S/eventual distinction measured here via the
// clean-lag column.
#include <iostream>

#include "common/argparse.h"
#include "exp_common.h"
#include "metrics/table.h"
#include "runtime/simple_host.h"

using namespace mmrfd;
using metrics::Table;

namespace {

bench::RunMetrics run_simple(const bench::Workload& w) {
  auto delays = net::make_preset(w.preset, w.mean_delay);
  if (w.spike) {
    delays = std::make_unique<net::SpikeDelay>(std::move(delays),
                                               w.spike->start, w.spike->end,
                                               w.spike->factor,
                                               w.spike->affected);
  }
  runtime::SimpleCluster cluster(
      w.n, net::Topology::full(w.n), std::move(delays),
      derive_seed(w.seed, "bench.simple"), [&](ProcessId self) {
        runtime::SimpleHostConfig c;
        c.detector.self = self;
        c.detector.n = w.n;
        c.detector.f = w.f;
        c.pacing = w.period;
        Xoshiro256 rng(derive_seed(w.seed, "bench.stagger", self.value));
        c.initial_delay = Duration(static_cast<Duration::rep>(
            rng.next_double() * static_cast<double>(w.period.count())));
        return c;
      });
  cluster.start(runtime::CrashPlan::none());
  cluster.run_for(w.horizon);
  return bench::summarize(cluster.log(), w.n, w.horizon);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t n = 20, f = 5, storm_len = 15, factor = 2000, horizon_s = 60,
                period_ms = 500;
  std::uint64_t seeds = 5;
  bool csv = false;
  ArgParser args("E9: tagged mistake flooding vs tag-free suspicion");
  args.flag("n", n, "system size")
      .flag("f", f, "fault tolerance")
      .flag("seeds", seeds, "seeds per cell")
      .flag("storm_len", storm_len, "unstable prefix length (s)")
      .flag("factor", factor, "storm delay multiplier")
      .flag("horizon", horizon_s, "simulated seconds")
      .flag("period", period_ms, "pacing Delta (ms)")
      .flag("csv", csv, "emit CSV");
  if (const auto status = args.parse(argc, argv)) return *status;
  if (!bench::check_system("exp_tag_ablation", "--n", n, f)) return 2;

  std::cout << "# E9: full (tagged) protocol vs tag-free variant; network "
               "unstable for the first "
            << storm_len << " s\n\n";

  Table table({"variant", "false_susp", "runs_clean", "mean_clean_lag_s",
               "max_clean_lag_s"});
  for (const bool tagged : {true, false}) {
    std::size_t fs = 0;
    std::size_t clean = 0;
    SampleSet lags;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      bench::Workload w;
      w.n = n;
      w.f = f;
      w.seed = seed;
      w.crashes = 0;
      w.horizon = from_seconds(horizon_s);
      w.preset = net::DelayPreset::kExponential;
      w.period = from_millis(period_ms);
      runtime::SpikeSpec storm;
      storm.start = kTimeZero;
      storm.end = from_seconds(storm_len);
      storm.factor = factor;
      w.spike = storm;
      const auto m = tagged ? bench::run_mmr(w) : run_simple(w);
      fs += m.false_suspicions;
      if (m.clean_at) {
        ++clean;
        lags.add(std::max(0.0, *m.clean_at - storm_len));
      }
    }
    table.add_row({tagged ? "full (tags+mistakes)" : "tag-free (class S only)",
                   Table::num(std::uint64_t{fs}),
                   Table::num(std::uint64_t{clean}) + "/" +
                       Table::num(std::uint64_t{seeds}),
                   Table::num(lags.mean()), Table::num(lags.max())});
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}
