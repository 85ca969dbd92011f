#include "baselines/heartbeat.h"

#include <gtest/gtest.h>

#include "metrics/analysis.h"
#include "runtime/baseline_cluster.h"

namespace mmrfd::baselines {
namespace {

constexpr Duration kPeriod = from_millis(100);

TEST(ArrivalWindow, DefaultsToPeriodBeforeSamples) {
  ArrivalWindow p(8);
  EXPECT_FALSE(p.predicted_next(kPeriod).has_value());
  p.observe(from_seconds(1));
  ASSERT_TRUE(p.predicted_next(kPeriod).has_value());
  EXPECT_EQ(*p.predicted_next(kPeriod), from_seconds(1) + from_millis(100));
}

TEST(ArrivalWindow, LearnsMeanInterval) {
  ArrivalWindow p(8);
  // Actual cadence is 250 ms, not the nominal 100 ms.
  for (int i = 0; i <= 8; ++i) p.observe(from_millis(250 * i));
  ASSERT_TRUE(p.predicted_next(kPeriod).has_value());
  EXPECT_EQ(*p.predicted_next(kPeriod), from_millis(250 * 8 + 250));
}

TEST(ArrivalWindow, WindowEvictsOldIntervals) {
  ArrivalWindow p(2);
  p.observe(from_millis(0));
  p.observe(from_millis(1000));  // interval 1000
  p.observe(from_millis(1100));  // interval 100
  p.observe(from_millis(1200));  // interval 100 -> window {100, 100}
  EXPECT_EQ(*p.predicted_next(kPeriod), from_millis(1300));
}

using Cluster = runtime::BaselineCluster<HeartbeatDetector>;

Cluster make_cluster(std::uint32_t n, Duration margin,
                     std::unique_ptr<net::DelayModel> delays,
                     std::uint64_t seed = 1) {
  return Cluster(n, net::Topology::full(n), std::move(delays), seed,
                 [=](ProcessId self) {
                   HeartbeatConfig c;
                   c.self = self;
                   c.n = n;
                   c.period = kPeriod;
                   c.rule = AdaptiveTimeout{.safety_margin = margin};
                   c.initial_delay = from_millis(self.value);
                   return c;
                 });
}

TEST(AdaptiveTimeout, StableClusterStaysClean) {
  auto c = make_cluster(4, from_millis(50),
                        std::make_unique<net::ConstantDelay>(from_millis(2)));
  c.start();
  c.run_for(from_seconds(10));
  metrics::Analysis a(c.log(), 4, from_seconds(10));
  EXPECT_TRUE(a.false_suspicions().empty());
}

TEST(AdaptiveTimeout, DetectsCrashQuickly) {
  auto c = make_cluster(4, from_millis(50),
                        std::make_unique<net::ConstantDelay>(from_millis(2)));
  runtime::CrashPlan plan;
  plan.entries.push_back({ProcessId{2}, from_seconds(5)});
  c.start(plan);
  c.run_for(from_seconds(15));
  metrics::Analysis a(c.log(), 4, from_seconds(15));
  EXPECT_TRUE(a.strong_completeness());
  const auto ss = a.crash_summaries();
  ASSERT_EQ(ss.size(), 1u);
  // Prediction + margin: detection within ~period + margin + slack.
  EXPECT_LT(ss[0].latencies.max(), 0.5);
}

TEST(AdaptiveTimeout, AdaptsToSlowerCadenceThanNominal) {
  // Mean delay grows after t=5 s; the adaptive margin keeps pace once the
  // window fills with slow intervals, so late false suspicions stop.
  auto inner = std::make_unique<net::ConstantDelay>(from_millis(2));
  auto delays = std::make_unique<net::SpikeDelay>(
      std::move(inner), from_seconds(5), from_seconds(100), 40.0);
  auto c = make_cluster(4, from_millis(120), std::move(delays), 3);
  c.start();
  c.run_for(from_seconds(40));
  metrics::Analysis a(c.log(), 4, from_seconds(40));
  // Transient false suspicions right after the shift are expected, but each
  // must be cleared once the predictor adapts.
  for (const auto& f : a.false_suspicions()) {
    EXPECT_TRUE(f.cleared_at.has_value() ||
                f.suspected_at > from_seconds(4));
  }
}

}  // namespace
}  // namespace mmrfd::baselines
