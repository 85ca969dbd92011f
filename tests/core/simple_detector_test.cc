#include "core/simple_detector.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "metrics/analysis.h"
#include "runtime/simple_host.h"

namespace mmrfd::core {
namespace {

SimpleDetectorConfig cfg(std::uint32_t self, std::uint32_t n,
                         std::uint32_t f) {
  SimpleDetectorConfig c;
  c.self = ProcessId{self};
  c.n = n;
  c.f = f;
  return c;
}

TEST(SimpleDetector, ConstructorRejectsMisconfiguration) {
  // Same contract as DetectorCore: f >= n would underflow quorum()'s n - f
  // (the old q == 0 clamp only caught exact zero, not the wrap-around).
  EXPECT_THROW(SimpleDetectorCore{cfg(0, 5, 5)}, std::invalid_argument);
  EXPECT_THROW(SimpleDetectorCore{cfg(0, 5, 7)}, std::invalid_argument);
  EXPECT_THROW(SimpleDetectorCore{cfg(0, 0, 0)}, std::invalid_argument);
  EXPECT_THROW(SimpleDetectorCore{cfg(5, 5, 1)}, std::invalid_argument);
  EXPECT_EQ(cfg(0, 5, 4).quorum(), 1u);  // f < n: no lower clamp needed
}

TEST(SimpleDetector, SuspectsNonResponders) {
  SimpleDetectorCore d(cfg(0, 4, 1));
  const auto q = d.start_query();
  (void)d.on_response(ProcessId{1}, ResponseMessage{q.seq});
  (void)d.on_response(ProcessId{2}, ResponseMessage{q.seq});
  d.finish_round();
  EXPECT_TRUE(d.is_suspected(ProcessId{3}));
  EXPECT_FALSE(d.is_suspected(ProcessId{1}));
}

TEST(SimpleDetector, DirectContactClearsSuspicion) {
  SimpleDetectorCore d(cfg(0, 4, 1));
  const auto q = d.start_query();
  (void)d.on_response(ProcessId{1}, ResponseMessage{q.seq});
  (void)d.on_response(ProcessId{2}, ResponseMessage{q.seq});
  d.finish_round();
  ASSERT_TRUE(d.is_suspected(ProcessId{3}));
  QueryMessage from3;
  from3.seq = 9;
  (void)d.on_query(ProcessId{3}, from3);
  EXPECT_FALSE(d.is_suspected(ProcessId{3}));
}

TEST(SimpleDetector, ResponseAlsoClearsSuspicion) {
  SimpleDetectorCore d(cfg(0, 4, 1));
  auto q = d.start_query();
  (void)d.on_response(ProcessId{1}, ResponseMessage{q.seq});
  (void)d.on_response(ProcessId{2}, ResponseMessage{q.seq});
  d.finish_round();
  ASSERT_TRUE(d.is_suspected(ProcessId{3}));
  q = d.start_query();
  (void)d.on_response(ProcessId{3}, ResponseMessage{q.seq});
  EXPECT_FALSE(d.is_suspected(ProcessId{3}));
}

TEST(SimpleDetector, ThirdPartySuspicionsAreNotAdopted) {
  // The structural weakness that motivates the tags: information cannot be
  // safely relayed, so the tag-free variant must ignore piggybacked sets.
  SimpleDetectorCore d(cfg(0, 5, 1));
  QueryMessage q;
  q.seq = 1;
  q.push_suspected({ProcessId{3}, 0});
  (void)d.on_query(ProcessId{1}, q);
  EXPECT_FALSE(d.is_suspected(ProcessId{3}));
}

TEST(SimpleDetector, StaleAndDuplicateResponsesIgnored) {
  SimpleDetectorCore d(cfg(0, 4, 1));
  const auto q1 = d.start_query();
  (void)d.on_response(ProcessId{1}, ResponseMessage{q1.seq});
  EXPECT_FALSE(d.on_response(ProcessId{1}, ResponseMessage{q1.seq}));
  EXPECT_TRUE(d.on_response(ProcessId{2}, ResponseMessage{q1.seq}));
  d.finish_round();
  const auto q2 = d.start_query();
  EXPECT_FALSE(d.on_response(ProcessId{3}, ResponseMessage{q1.seq}));
  (void)q2;
}

TEST(SimpleDetector, ObserverSeesTransitions) {
  struct Rec : SuspicionObserver {
    int suspected = 0;
    int cleared = 0;
    void on_suspected(ProcessId, Tag) override { ++suspected; }
    void on_cleared(ProcessId, Tag) override { ++cleared; }
  } rec;
  SimpleDetectorCore d(cfg(0, 3, 1));
  d.set_observer(&rec);
  const auto q = d.start_query();
  (void)d.on_response(ProcessId{1}, ResponseMessage{q.seq});
  d.finish_round();  // suspects p2
  EXPECT_EQ(rec.suspected, 1);
  QueryMessage from2;
  from2.seq = 1;
  (void)d.on_query(ProcessId{2}, from2);
  EXPECT_EQ(rec.cleared, 1);
}

TEST(SimpleCluster, CompletenessStillHolds) {
  // The tag-free variant retains strong completeness: a crashed process
  // stops producing direct contact, so its suspicion sticks.
  runtime::SimpleCluster cluster(
      8, net::Topology::full(8),
      net::make_preset(net::DelayPreset::kExponential, from_millis(1)), 3,
      [](ProcessId self) {
        runtime::SimpleHostConfig c;
        c.detector.self = self;
        c.detector.n = 8;
        c.detector.f = 2;
        c.pacing = from_millis(100);
        c.initial_delay = from_millis(self.value * 7);
        return c;
      });
  runtime::CrashPlan plan;
  plan.entries.push_back({ProcessId{5}, from_seconds(2)});
  cluster.start(plan);
  cluster.run_for(from_seconds(20));
  metrics::Analysis analysis(cluster.log(), 8, from_seconds(20));
  EXPECT_TRUE(analysis.strong_completeness());
}

TEST(SimpleCluster, CleanUnderStableNetwork) {
  // Perpetual-pattern conditions: constant delays, no crashes -> no
  // suspicion at all (the class-S configuration is sound here).
  runtime::SimpleCluster cluster(
      6, net::Topology::full(6),
      std::make_unique<net::ConstantDelay>(from_millis(1)), 4,
      [](ProcessId self) {
        runtime::SimpleHostConfig c;
        c.detector.self = self;
        c.detector.n = 6;
        c.detector.f = 2;
        c.pacing = from_millis(100);
        c.initial_delay = from_millis(self.value * 3);
        return c;
      });
  cluster.start(runtime::CrashPlan::none());
  cluster.run_for(from_seconds(10));
  EXPECT_TRUE(cluster.log().events().empty());
}

}  // namespace
}  // namespace mmrfd::core
