// Property-style parameterized sweeps: the protocol's guarantees must hold
// for EVERY delay distribution and EVERY seed — completeness needs no
// assumption at all, accuracy needs exactly MP, determinism needs nothing
// but the seed. Each TEST_P is one (distribution, seed) cell.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/properties.h"
#include "metrics/analysis.h"
#include "runtime/cluster.h"

namespace mmrfd::runtime {
namespace {

struct SweepParam {
  net::DelayPreset preset;
  std::uint64_t seed;
};

std::string param_name(const testing::TestParamInfo<SweepParam>& info) {
  return std::string(net::preset_name(info.param.preset)) + "_seed" +
         std::to_string(info.param.seed);
}

std::vector<SweepParam> make_params() {
  std::vector<SweepParam> out;
  for (auto preset :
       {net::DelayPreset::kConstant, net::DelayPreset::kUniform,
        net::DelayPreset::kExponential, net::DelayPreset::kLogNormal,
        net::DelayPreset::kPareto}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      out.push_back({preset, seed});
    }
  }
  return out;
}

class DetectorSweep : public testing::TestWithParam<SweepParam> {};

// Strong completeness holds under ANY delay model, any seed, no bias.
TEST_P(DetectorSweep, StrongCompletenessAlwaysHolds) {
  const auto p = GetParam();
  MmrClusterConfig cfg;
  cfg.n = 10;
  cfg.f = 3;
  cfg.seed = p.seed;
  cfg.pacing = from_millis(100);
  cfg.mean_delay = from_millis(2);
  cfg.delay_preset = p.preset;
  MmrCluster cluster(cfg);
  const auto plan =
      CrashPlan::uniform(3, 10, from_seconds(2), from_seconds(10), p.seed);
  cluster.start(plan);
  cluster.run_for(from_seconds(40));
  metrics::Analysis analysis(cluster.log(), 10, from_seconds(40));
  EXPECT_TRUE(analysis.strong_completeness());
  // And permanence: crashed processes are suspected at the end by everyone.
  for (ProcessId victim : plan.victims()) {
    for (std::uint32_t i = 0; i < 10; ++i) {
      if (plan.crashes(ProcessId{i})) continue;
      EXPECT_TRUE(
          cluster.host(ProcessId{i}).detector().is_suspected(victim))
          << net::preset_name(p.preset) << " seed " << p.seed << ": p" << i
          << " does not suspect crashed p" << victim.value;
    }
  }
}

// With an engineered witness, accuracy stabilizes on every distribution:
// the witness is not suspected by anyone at the end of the run.
TEST_P(DetectorSweep, EngineeredWitnessIsEventuallyTrusted) {
  const auto p = GetParam();
  MmrClusterConfig cfg;
  cfg.n = 10;
  cfg.f = 3;
  cfg.seed = p.seed;
  cfg.pacing = from_millis(100);
  cfg.mean_delay = from_millis(2);
  cfg.delay_preset = p.preset;
  cfg.fast_set = {ProcessId{0}};
  cfg.fast_factor = 0.02;
  MmrCluster cluster(cfg);
  cluster.start();
  cluster.run_for(from_seconds(40));
  for (std::uint32_t i = 1; i < 10; ++i) {
    EXPECT_FALSE(
        cluster.host(ProcessId{i}).detector().is_suspected(ProcessId{0}))
        << net::preset_name(p.preset) << " seed " << p.seed;
  }
}

// Identical seeds produce bit-identical event logs; different seeds differ
// (on randomized presets).
TEST_P(DetectorSweep, RunsAreDeterministic) {
  const auto p = GetParam();
  auto digest = [&](std::uint64_t seed) {
    MmrClusterConfig cfg;
    cfg.n = 8;
    cfg.f = 2;
    cfg.seed = seed;
    cfg.pacing = from_millis(100);
    cfg.mean_delay = from_millis(5);
    cfg.delay_preset = p.preset;
    MmrCluster cluster(cfg);
    const auto plan =
        CrashPlan::uniform(2, 8, from_seconds(1), from_seconds(5), seed);
    cluster.start(plan);
    cluster.run_for(from_seconds(15));
    std::ostringstream os;
    for (const auto& e : cluster.log().events()) {
      os << e.when.count() << ',' << e.observer.value << ','
         << e.subject.value << ',' << static_cast<int>(e.kind) << ';';
    }
    os << cluster.network().stats().messages_sent;
    return os.str();
  };
  EXPECT_EQ(digest(p.seed), digest(p.seed));
}

// A host never suspects itself, and suspected/mistake sets stay disjoint —
// checked over the full run via the final state of every host.
TEST_P(DetectorSweep, StateInvariantsAtEndOfRun) {
  const auto p = GetParam();
  MmrClusterConfig cfg;
  cfg.n = 12;
  cfg.f = 4;
  cfg.seed = p.seed;
  cfg.pacing = from_millis(100);
  cfg.mean_delay = from_millis(10);  // aggressive: delay ~ pacing/10
  cfg.delay_preset = p.preset;
  MmrCluster cluster(cfg);
  const auto plan =
      CrashPlan::uniform(2, 12, from_seconds(2), from_seconds(8), p.seed);
  cluster.start(plan);
  cluster.run_for(from_seconds(20));
  for (std::uint32_t i = 0; i < 12; ++i) {
    const auto& d = cluster.host(ProcessId{i}).detector();
    EXPECT_FALSE(d.is_suspected(ProcessId{i}));
    for (const auto listed = d.full_query();
         const auto& e : listed.suspected()) {
      EXPECT_FALSE(d.mistake_tag(e.id).has_value())
          << "p" << i << " holds both suspicion and mistake for p"
          << e.id.value;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPresets, DetectorSweep,
                         testing::ValuesIn(make_params()), param_name);

// The MP checker's verdict must agree with observed accuracy: whenever the
// checker says MP held with witness p, no correct process may suspect p at
// the end of the horizon (modulo in-flight repair, excluded by the quiet
// tail of the run).
class MpConsistencySweep : public testing::TestWithParam<SweepParam> {};

TEST_P(MpConsistencySweep, CheckerVerdictMatchesObservedAccuracy) {
  const auto p = GetParam();
  MmrClusterConfig cfg;
  cfg.n = 10;
  cfg.f = 3;
  cfg.seed = p.seed;
  cfg.pacing = from_millis(100);
  cfg.mean_delay = from_millis(2);
  cfg.delay_preset = p.preset;
  cfg.fast_set = {ProcessId{3}};
  cfg.fast_factor = 0.02;
  MmrCluster cluster(cfg);
  cluster.start();
  cluster.run_for(from_seconds(30));
  std::vector<ProcessId> correct;
  for (std::uint32_t i = 0; i < 10; ++i) correct.push_back(ProcessId{i});
  core::MpChecker checker(cluster.recorder(), cfg.f, correct);
  const auto verdict = checker.check();
  if (!verdict.holds) GTEST_SKIP() << "MP did not hold on this seed";
  for (std::uint32_t i = 0; i < 10; ++i) {
    if (ProcessId{i} == verdict.witness) continue;
    EXPECT_FALSE(cluster.host(ProcessId{i})
                     .detector()
                     .is_suspected(verdict.witness))
        << "checker said MP held with witness p" << verdict.witness.value
        << " but p" << i << " still suspects it";
  }
}

INSTANTIATE_TEST_SUITE_P(AllPresets, MpConsistencySweep,
                         testing::ValuesIn(make_params()), param_name);

}  // namespace
}  // namespace mmrfd::runtime
