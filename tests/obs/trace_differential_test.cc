// Differential certificate for the TraceAssembler: on fixed-seed simulated
// schedules, detection latencies reconstructed from the per-host flight
// rings must equal metrics::Analysis — the ground truth every experiment
// reports — EXACTLY, per (observer, crash). Both pipelines read the same
// instants through the same clock, so any disagreement is an assembler bug,
// not noise. Live dumps share one host clock the same way, and
// LiveCluster.SupervisorHarvestsAndAssemblesTraces holds them to the same
// equality.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>

#include "metrics/analysis.h"
#include "obs/trace_assembler.h"
#include "runtime/cluster.h"
#include "runtime/crash_plan.h"

namespace mmrfd::runtime {
namespace {

struct Scenario {
  std::uint32_t n;
  std::uint32_t f;
  std::uint64_t seed;
  std::size_t crashes;
  bool delta;
};

void run_differential(const Scenario& sc) {
  MmrClusterConfig cfg;
  cfg.n = sc.n;
  cfg.f = sc.f;
  cfg.seed = sc.seed;
  cfg.pacing = from_millis(100);
  cfg.mean_delay = from_millis(1);
  cfg.delta_queries = sc.delta;
  // Large enough that nothing relevant is evicted within the horizon: the
  // ring is the assembler's only source.
  cfg.trace_capacity = 1u << 16;
  MmrCluster cluster(cfg);

  const Duration horizon = from_seconds(30);
  const auto plan = CrashPlan::uniform(sc.crashes, sc.n, from_seconds(3),
                                       from_seconds(12), sc.seed);
  cluster.start(plan);
  cluster.run_for(horizon);

  const metrics::Analysis analysis(cluster.log(), sc.n, horizon);

  obs::TraceAssembler assembler(obs::AssemblerOptions{});
  for (std::uint32_t i = 0; i < sc.n; ++i) {
    obs::FlightRecorder* rec = cluster.trace(ProcessId{i});
    ASSERT_NE(rec, nullptr);
    assembler.add_node(obs::TraceNodeInput{i, 0, rec->snapshot()});
  }
  for (const metrics::CrashRecord& c : cluster.log().crashes()) {
    assembler.add_crash(c.subject.value, c.when.count());
  }
  const obs::AssembledTrace trace = assembler.assemble();

  // Identity alignment of one shared clock can never invert a causal pair.
  EXPECT_EQ(trace.causal_violations, 0u);
  EXPECT_GT(trace.matched_pairs, 0u);

  // Ground truth: (observer, subject) -> latency from Analysis.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t> expected;
  std::map<std::uint32_t, std::size_t> expected_undetected;
  for (const metrics::Detection& d : analysis.detections()) {
    if (const auto latency = d.latency()) {
      expected[{d.observer.value, d.subject.value}] = latency->count();
    } else {
      ++expected_undetected[d.subject.value];
    }
  }

  ASSERT_EQ(trace.crashes.size(), cluster.log().crashes().size());
  std::size_t compared = 0;
  for (const obs::CrashTimeline& ct : trace.crashes) {
    for (const obs::ObserverBreakdown& ob : ct.observers) {
      const auto it = expected.find({ob.observer, ct.victim});
      ASSERT_NE(it, expected.end())
          << "assembler invented a detection: observer " << ob.observer
          << " of victim " << ct.victim;
      // THE property: trace-reconstructed latency equals Analysis exactly.
      EXPECT_EQ(ob.latency_ns, it->second)
          << "observer " << ob.observer << " victim " << ct.victim;
      // And the attribution is a true decomposition, not an approximation.
      EXPECT_EQ(ob.pacing_ns + ob.resend_wait_ns + ob.wire_ns, ob.latency_ns)
          << "observer " << ob.observer << " victim " << ct.victim;
      // The grace is the post-quorum share of the pacing.
      EXPECT_GE(ob.grace_ns, 0)
          << "observer " << ob.observer << " victim " << ct.victim;
      EXPECT_LE(ob.grace_ns, ob.pacing_ns)
          << "observer " << ob.observer << " victim " << ct.victim;
      ++compared;
    }
    const auto und = expected_undetected.find(ct.victim);
    EXPECT_EQ(ct.undetected,
              und == expected_undetected.end() ? 0u : und->second)
        << "victim " << ct.victim;
    // stable_ns must be the max detect instant when everyone detected.
    if (ct.undetected == 0 && !ct.observers.empty()) {
      ASSERT_TRUE(ct.stable_ns.has_value());
      std::int64_t max_detect = ct.observers.front().detect_ns;
      for (const auto& ob : ct.observers) {
        max_detect = std::max(max_detect, ob.detect_ns);
      }
      EXPECT_EQ(*ct.stable_ns, max_detect);
    }
  }
  EXPECT_EQ(compared, expected.size() - [&] {
    std::size_t undetected = 0;
    for (const auto& [victim, count] : expected_undetected) {
      undetected += count;
    }
    return undetected;
  }());
}

TEST(TraceDifferential, MatchesAnalysisExactlyDeltaEncoding) {
  run_differential({10, 3, 7, 2, true});
}

TEST(TraceDifferential, MatchesAnalysisExactlyFullEncoding) {
  run_differential({10, 3, 7, 2, false});
}

TEST(TraceDifferential, MatchesAnalysisAcrossSeedsAndSizes) {
  for (const Scenario& sc : {Scenario{8, 2, 11, 1, true},
                             Scenario{12, 4, 23, 4, true},
                             Scenario{16, 5, 31, 3, false}}) {
    SCOPED_TRACE(::testing::Message()
                 << "n=" << sc.n << " f=" << sc.f << " seed=" << sc.seed
                 << " crashes=" << sc.crashes << " delta=" << sc.delta);
    run_differential(sc);
  }
}

}  // namespace
}  // namespace mmrfd::runtime
