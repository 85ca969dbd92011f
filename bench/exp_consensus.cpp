// E6 — End-to-end value of the detector: Chandra-Toueg consensus latency.
//
// Same consensus protocol, same workload, four detectors: the perfect
// oracle (lower bound), the asynchronous query-response detector, and two
// timer-based baselines. Scenarios: failure-free, coordinator crash, and a
// delay spike during the run.
//
// Expected shape: failure-free, everyone ties (round 1). With the round-1
// coordinator crashed, decision time = (time to suspect p0) + round 2; the
// async detector's suspicion time ~ Delta beats the padded Theta. Under a
// spike, timer-based detectors false-suspect coordinators and burn extra
// rounds; the async detector stays on the fast path once MP re-asserts.
#include <iostream>

#include "common/argparse.h"
#include "common/stats.h"
#include "consensus/harness.h"
#include "metrics/table.h"

using namespace mmrfd;
using namespace mmrfd::consensus;
using metrics::Table;

namespace {

struct Scenario {
  std::string name;
  bool crash_coordinator{false};
};

struct Outcome {
  double decide_s{0.0};
  Round rounds{0};
  bool ok{false};
};

Outcome run_one(FdKind kind, const Scenario& sc, std::uint64_t seed,
                std::uint32_t n, std::uint32_t f) {
  HarnessConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.fd = kind;
  cfg.seed = seed;
  cfg.mean_delay = from_millis(2);
  cfg.mmr_pacing = from_millis(50);
  cfg.hb_period = from_millis(50);
  cfg.hb_timeout = from_millis(200);
  ConsensusHarness h(cfg);
  std::vector<Value> proposals;
  for (std::uint32_t i = 0; i < n; ++i) proposals.push_back(100 + i);
  runtime::CrashPlan plan;
  if (sc.crash_coordinator) {
    // Round-1 coordinator p0 dies before any phase-1 estimate can reach it
    // (mean delay 2 ms), so it never proposes: every participant must wait
    // for its failure detector to suspect p0 before round 2 can start —
    // the scenario where detector latency is the decision latency.
    plan.entries.push_back({ProcessId{0}, from_millis(1) / 2});
  }
  h.start(proposals, plan);
  Outcome out;
  out.ok = h.run_until_decided(from_seconds(120));
  if (out.ok) {
    out.decide_s = to_seconds(*h.last_decision_at());
    out.rounds = h.max_round();
    if (!h.agreed_value().has_value()) out.ok = false;  // agreement violated
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t n = 7, f = 3;
  std::uint64_t seeds = 5;
  bool csv = false;
  ArgParser args("E6: consensus decision latency per failure detector");
  args.flag("n", n, "system size")
      .flag("f", f, "fault tolerance (< n/2)")
      .flag("seeds", seeds, "seeds per cell")
      .flag("csv", csv, "emit CSV");
  if (const auto status = args.parse(argc, argv)) return *status;
  // Every detector needs two processes, and consensus a correct majority.
  if (n < 2) {
    std::cerr << "exp_consensus: --n must be >= 2 (got " << n << ")\n";
    return 2;
  }
  if (2ull * f >= n) {
    std::cerr << "exp_consensus: --f must be < n/2 (got f=" << f
              << ", n=" << n << ")\n";
    return 2;
  }

  std::cout << "# E6: Chandra-Toueg consensus on top of each detector "
            << "(n = " << n << ", f = " << f << ", " << seeds << " seeds)\n\n";

  Table table({"scenario", "detector", "decided", "mean_decide_s",
               "max_decide_s", "mean_rounds"});

  const Scenario scenarios[] = {{"failure-free", false},
                                {"coordinator-crash", true}};
  for (const auto& sc : scenarios) {
    for (FdKind kind : {FdKind::kPerfect, FdKind::kMmr, FdKind::kHeartbeat,
                        FdKind::kPhiAccrual}) {
      SampleSet decide;
      SampleSet rounds;
      std::size_t ok = 0;
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        const auto out = run_one(kind, sc, seed, n, f);
        if (out.ok) {
          ++ok;
          decide.add(out.decide_s);
          rounds.add(static_cast<double>(out.rounds));
        }
      }
      table.add_row({sc.name, fd_kind_name(kind),
                     Table::num(std::uint64_t{ok}) + "/" +
                         Table::num(std::uint64_t{seeds}),
                     Table::num(decide.mean()), Table::num(decide.max()),
                     Table::num(rounds.mean(), 1)});
    }
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}
