// Fault-injection robustness: behaviours *outside* the paper's channel model
// (duplication, extreme reordering via heavy-tailed delays, simultaneous
// crashes, crash of the engineered witness) that a production deployment
// will meet anyway. The protocol must stay safe; where the model is
// violated, degradation must be graceful and understood.
#include <gtest/gtest.h>

#include "core/properties.h"
#include "metrics/analysis.h"
#include "runtime/cluster.h"

namespace mmrfd::runtime {
namespace {

MmrClusterConfig base(std::uint32_t n, std::uint32_t f, std::uint64_t seed) {
  MmrClusterConfig c;
  c.n = n;
  c.f = f;
  c.seed = seed;
  c.pacing = from_millis(100);
  c.mean_delay = from_millis(2);
  return c;
}

TEST(FaultInjection, DuplicatedMessagesAreIdempotent) {
  // 30% of all messages delivered twice: duplicate responses must not count
  // twice toward the quorum, duplicate queries only cost an extra response.
  auto cfg = base(8, 2, 21);
  cfg.delay_preset = net::DelayPreset::kConstant;
  MmrCluster cluster(cfg);
  cluster.network().set_duplicate_rate(0.3);
  CrashPlan plan;
  plan.entries.push_back({ProcessId{5}, from_seconds(3)});
  cluster.start(plan);
  cluster.run_for(from_seconds(20));
  EXPECT_GT(cluster.network().stats().messages_duplicated, 1000u);
  metrics::Analysis analysis(cluster.log(), 8, from_seconds(20));
  EXPECT_TRUE(analysis.strong_completeness());
  // Constant delays + duplication: still not a single false suspicion.
  EXPECT_TRUE(analysis.false_suspicions().empty());
}

TEST(FaultInjection, DuplicationDoesNotShortcutQuorum) {
  // Direct core check: the same responder delivered twice is one vote.
  core::DetectorConfig cfg;
  cfg.self = ProcessId{0};
  cfg.n = 5;
  cfg.f = 2;  // quorum 3: self + 2 distinct
  core::DetectorCore d(cfg);
  const auto q = d.start_query();
  EXPECT_FALSE(d.on_response(ProcessId{1}, core::ResponseMessage{q.seq}));
  EXPECT_FALSE(d.on_response(ProcessId{1}, core::ResponseMessage{q.seq}));
  EXPECT_FALSE(d.on_response(ProcessId{1}, core::ResponseMessage{q.seq}));
  EXPECT_TRUE(d.on_response(ProcessId{2}, core::ResponseMessage{q.seq}));
}

TEST(FaultInjection, SimultaneousFCrashes) {
  // All f crashes at the same instant — the hardest completeness workload:
  // the quorum shrinks to exactly n - f survivors at once.
  auto cfg = base(10, 3, 22);
  MmrCluster cluster(cfg);
  const std::vector<ProcessId> victims{ProcessId{1}, ProcessId{4},
                                       ProcessId{7}};
  cluster.start(CrashPlan::simultaneous(victims, from_seconds(2)));
  cluster.run_for(from_seconds(20));
  metrics::Analysis analysis(cluster.log(), 10, from_seconds(20));
  EXPECT_TRUE(analysis.strong_completeness());
  for (ProcessId v : victims) {
    for (std::uint32_t i = 0; i < 10; ++i) {
      if (std::find(victims.begin(), victims.end(), ProcessId{i}) !=
          victims.end()) {
        continue;
      }
      EXPECT_TRUE(cluster.host(ProcessId{i}).detector().is_suspected(v));
    }
  }
}

TEST(FaultInjection, CrashOfTheWitnessStillCompletes) {
  // The MP witness itself crashes: accuracy's precondition is gone (MP
  // demands a *correct* witness) but completeness must still hold, and the
  // witness must end up suspected everywhere despite its mistake history.
  auto cfg = base(8, 2, 23);
  cfg.delay_preset = net::DelayPreset::kPareto;
  cfg.mean_delay = from_millis(10);
  cfg.fast_set = {ProcessId{0}};
  cfg.fast_factor = 0.05;
  MmrCluster cluster(cfg);
  CrashPlan plan;
  plan.entries.push_back({ProcessId{0}, from_seconds(10)});
  cluster.start(plan);
  cluster.run_for(from_seconds(40));
  for (std::uint32_t i = 1; i < 8; ++i) {
    EXPECT_TRUE(
        cluster.host(ProcessId{i}).detector().is_suspected(ProcessId{0}))
        << "p" << i;
  }
}

TEST(FaultInjection, CrashDuringSpikeIsStillDetectedPermanently) {
  // A process crashes *while unreachable*: observers cannot distinguish the
  // two (the paper's moving-node ambiguity). When the spike lifts, its
  // suspicion must remain — no mistake can ever arrive.
  auto cfg = base(8, 2, 24);
  cfg.delay_preset = net::DelayPreset::kConstant;
  SpikeSpec spike;
  spike.start = from_seconds(5);
  spike.end = from_seconds(10);
  spike.factor = 5000.0;
  spike.affected = {ProcessId{7}};
  cfg.spike = spike;
  MmrCluster cluster(cfg);
  CrashPlan plan;
  plan.entries.push_back({ProcessId{7}, from_seconds(7)});  // mid-spike
  cluster.start(plan);
  cluster.run_for(from_seconds(40));
  metrics::Analysis analysis(cluster.log(), 8, from_seconds(40));
  EXPECT_TRUE(analysis.strong_completeness());
  for (std::uint32_t i = 0; i < 7; ++i) {
    EXPECT_TRUE(
        cluster.host(ProcessId{i}).detector().is_suspected(ProcessId{7}));
  }
}

TEST(FaultInjection, ExtremeReorderingViaParetoTails) {
  // Pareto delays reorder messages massively (a response can overtake
  // queries from several later rounds). Stale-seq filtering must keep every
  // invariant; completeness unaffected.
  auto cfg = base(10, 3, 25);
  cfg.delay_preset = net::DelayPreset::kPareto;
  cfg.mean_delay = from_millis(30);  // ~1/3 of the pacing: heavy overlap
  MmrCluster cluster(cfg);
  const auto plan =
      CrashPlan::uniform(3, 10, from_seconds(3), from_seconds(10), 25);
  cluster.start(plan);
  cluster.run_for(from_seconds(60));
  metrics::Analysis analysis(cluster.log(), 10, from_seconds(60));
  EXPECT_TRUE(analysis.strong_completeness());
  for (std::uint32_t i = 0; i < 10; ++i) {
    const auto& d = cluster.host(ProcessId{i}).detector();
    for (const auto listed = d.full_query();
         const auto& e : listed.suspected()) {
      EXPECT_FALSE(d.mistake_tag(e.id).has_value());
    }
  }
}

TEST(FaultInjection, LossBreaksLivenessAsTheModelPredicts) {
  // Negative test, documenting the model boundary: the protocol *requires*
  // reliable channels. With 20% loss a query eventually waits forever for
  // its quorum and that host's rounds stall.
  auto cfg = base(6, 2, 26);
  cfg.delay_preset = net::DelayPreset::kConstant;
  MmrCluster cluster(cfg);
  cluster.network().set_loss_rate(0.2);
  cluster.start();
  cluster.run_for(from_seconds(120));
  std::uint64_t min_rounds = ~0ULL;
  for (std::uint32_t i = 0; i < 6; ++i) {
    min_rounds = std::min(
        min_rounds, cluster.host(ProcessId{i}).detector().rounds_completed());
  }
  // 120 s at ~9 rounds/s would be ~1000 rounds; a stalled host shows far
  // fewer. (Quorum 4 of 6: P[>=2 of 5 responses lost] ~ 26% per round.)
  EXPECT_LT(min_rounds, 500u);
}

}  // namespace
}  // namespace mmrfd::runtime
