// E10 — Omega on top of the detectors: leader stability under churn.
//
// Leader = smallest-id unsuspected process (the classic <>S -> Omega
// reduction; the DSN'03 conclusion names "other classes" as the follow-up).
// A good detector yields a leader that (a) converges to the same correct
// process everywhere, (b) changes rarely. We count per-process leader
// changes and the time of the last change, under three scenarios: stable,
// leaders assassinated, and a delay spike on the leader.
//
// Expected shape: all detectors converge in all scenarios (they are all
// <>S-grade here); the async detector's changes track its round cadence
// (crash noticed in ~Delta), timer detectors lag by Theta; under the
// *spike* (leader alive but slow) timer detectors dethrone the leader
// spuriously and re-elect it afterwards (2 extra changes per observer),
// while the async detector with late-response acceptance mostly keeps it.
#include <iostream>
#include <utility>

#include "common/argparse.h"
#include "core/omega.h"
#include "exp_common.h"
#include "metrics/table.h"

using namespace mmrfd;
using metrics::Table;

namespace {

struct OmegaOutcome {
  double mean_changes_per_proc{0.0};
  bool unanimous{false};
  double last_change_s{0.0};
  ProcessId final_leader{kNoProcess};
};

// Polls OmegaViews every 100 ms of virtual time until `horizon`.
template <typename GetFd>
OmegaOutcome poll_omega(sim::Simulation& sim, std::uint32_t n,
                        const std::vector<ProcessId>& correct, GetFd get_fd,
                        Duration horizon) {
  std::vector<core::OmegaView> views;
  views.reserve(correct.size());
  for (ProcessId id : correct) views.emplace_back(get_fd(id), n);
  std::vector<TimePoint> last_change(correct.size(), kTimeZero);

  std::function<void()> tick = [&] {
    for (std::size_t i = 0; i < views.size(); ++i) {
      const auto before = views[i].changes();
      views[i].poll();
      if (views[i].changes() != before) last_change[i] = sim.now();
    }
    if (sim.now() < horizon) sim.schedule(from_millis(100), tick);
  };
  sim.schedule(from_millis(100), tick);
  sim.run_until(horizon);

  OmegaOutcome out;
  double total = 0.0;
  out.unanimous = true;
  out.final_leader = views.empty() ? kNoProcess : views[0].current();
  for (std::size_t i = 0; i < views.size(); ++i) {
    total += static_cast<double>(views[i].changes());
    out.last_change_s =
        std::max(out.last_change_s, to_seconds(last_change[i]));
    if (views[i].current() != out.final_leader) out.unanimous = false;
  }
  out.mean_changes_per_proc = total / static_cast<double>(views.size());
  return out;
}

struct Scenario {
  std::string name;
  std::vector<std::uint32_t> crash_leaders;  // crash these ids in sequence
  bool spike_leader{false};
};

// The scenario's crashes: its leaders die 5 s apart from t = 5 s. `correct`
// gets everyone else.
runtime::CrashPlan leader_crashes(const Scenario& sc, std::uint32_t n,
                                  std::vector<ProcessId>& correct) {
  runtime::CrashPlan plan;
  for (std::uint32_t i = 0; i < n; ++i) correct.push_back(ProcessId{i});
  double when = 5.0;
  for (std::uint32_t victim : sc.crash_leaders) {
    plan.entries.push_back({ProcessId{victim}, from_seconds(when)});
    when += 5.0;
    std::erase(correct, ProcessId{victim});
  }
  return plan;
}

OmegaOutcome run_mmr_omega(const Scenario& sc, std::uint64_t seed,
                           std::uint32_t n, Duration horizon) {
  runtime::MmrClusterConfig cfg;
  cfg.n = n;
  cfg.f = n / 3;
  cfg.seed = seed;
  cfg.pacing = from_millis(250);
  cfg.mean_delay = from_millis(2);
  if (sc.spike_leader) {
    runtime::SpikeSpec spike;
    spike.start = from_seconds(10);
    spike.end = from_seconds(15);
    spike.factor = 3000.0;
    spike.affected = {ProcessId{0}};
    cfg.spike = spike;
  }
  runtime::MmrCluster cluster(cfg);
  std::vector<ProcessId> correct;
  cluster.start(leader_crashes(sc, n, correct));
  return poll_omega(
      cluster.simulation(), n, correct,
      [&](ProcessId id) -> const core::FailureDetector& {
        return cluster.host(id).detector();
      },
      horizon);
}

OmegaOutcome run_baseline_omega(const Scenario& sc, std::uint64_t seed,
                                std::uint32_t n, Duration horizon,
                                const baselines::SuspicionRule& rule) {
  auto delays = net::make_preset(net::DelayPreset::kExponential,
                                 from_millis(2));
  if (sc.spike_leader) {
    delays = std::make_unique<net::SpikeDelay>(
        std::move(delays), from_seconds(10), from_seconds(15), 3000.0,
        std::vector<ProcessId>{ProcessId{0}});
  }
  runtime::BaselineCluster<baselines::HeartbeatDetector> cluster(
      n, net::Topology::full(n), std::move(delays), seed, [&](ProcessId self) {
        baselines::HeartbeatConfig c;
        c.self = self;
        c.n = n;
        c.period = from_millis(250);
        c.rule = rule;
        c.initial_delay = from_millis(self.value * 3);
        return c;
      });
  std::vector<ProcessId> correct;
  cluster.start(leader_crashes(sc, n, correct));
  return poll_omega(
      cluster.simulation(), n, correct,
      [&](ProcessId id) -> const core::FailureDetector& {
        return cluster.detector(id);
      },
      horizon);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t n = 12, horizon_s = 30;
  std::uint64_t seed = 1;
  bool csv = false;
  ArgParser args("E10: Omega leader stability per detector");
  args.flag("n", n, "system size")
      .flag("horizon", horizon_s, "simulated seconds")
      .flag("seed", seed, "seed")
      .flag("csv", csv, "emit CSV");
  if (const auto status = args.parse(argc, argv)) return *status;
  if (!bench::check_system("exp_omega", "--n", n, n / 3)) return 2;

  const auto horizon = from_seconds(horizon_s);

  std::cout << "# E10: Omega (leader = min unsuspected) stability "
            << "(n = " << n << ", poll 100 ms)\n\n";

  const Scenario scenarios[] = {
      {"stable", {}, false},
      {"assassinate-p0-p1", {0, 1}, false},
      {"leader-spike", {}, true},
  };

  // The baselines beside the paper's detector: Theta = 4 Delta, and phi at
  // its default threshold, re-evaluated every Delta / 5.
  const std::pair<const char*, baselines::SuspicionRule> baseline_rules[] = {
      {"heartbeat", baselines::FixedTimeout{from_millis(1000)}},
      {"phi", baselines::PhiAccrual{.threshold = 8.0, .poll = from_millis(50)}},
  };

  Table table({"scenario", "detector", "final_leader", "unanimous",
               "mean_changes", "last_change_s"});
  for (const auto& sc : scenarios) {
    const auto add_row = [&](const std::string& detector,
                             const OmegaOutcome& out) {
      table.add_row({sc.name, detector,
                     out.final_leader == kNoProcess
                         ? std::string("none")
                         : "p" + std::to_string(out.final_leader.value),
                     out.unanimous ? "yes" : "NO",
                     Table::num(out.mean_changes_per_proc, 2),
                     Table::num(out.last_change_s, 2)});
    };
    add_row("mmr", run_mmr_omega(sc, seed, n, horizon));
    for (const auto& [detector, rule] : baseline_rules) {
      add_row(detector, run_baseline_omega(sc, seed, n, horizon, rule));
    }
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}
