#include "baselines/heartbeat.h"

#include <gtest/gtest.h>

#include "metrics/analysis.h"
#include "runtime/baseline_cluster.h"

namespace mmrfd::baselines {
namespace {

constexpr Duration kFloor = from_millis(10);  // the stddev floor

TEST(ArrivalWindow, PhiZeroWithoutSamples) {
  ArrivalWindow w(10);
  EXPECT_EQ(w.phi(from_seconds(100), kFloor), 0.0);
  w.observe(from_seconds(1));  // one arrival, no interval yet
  EXPECT_EQ(w.phi(from_seconds(100), kFloor), 0.0);
}

TEST(ArrivalWindow, PhiGrowsWithSilence) {
  ArrivalWindow w(10);
  for (int i = 1; i <= 6; ++i) w.observe(from_seconds(i));
  const double phi_early = w.phi(from_seconds(6.5), kFloor);
  const double phi_late = w.phi(from_seconds(9.0), kFloor);
  EXPECT_LT(phi_early, phi_late);
  EXPECT_GT(phi_late, 8.0);  // 2 s overdue on a tight 1 s cadence
}

TEST(ArrivalWindow, PhiLowRightAfterArrival) {
  ArrivalWindow w(10);
  for (int i = 1; i <= 6; ++i) w.observe(from_seconds(i));
  EXPECT_LT(w.phi(from_seconds(6.1), kFloor), 1.0);
}

TEST(ArrivalWindow, WindowEvictsOldSamples) {
  ArrivalWindow w(4);
  // Jittery start, then rock-steady cadence; after eviction the stddev
  // reflects only the steady samples.
  w.observe(from_seconds(0));
  w.observe(from_seconds(3));
  for (int i = 1; i <= 8; ++i) {
    w.observe(from_seconds(3) + from_seconds(i));
  }
  EXPECT_EQ(w.samples(), 4u);
  EXPECT_GT(w.phi(from_seconds(11) + from_seconds(3), kFloor), 5.0);
}

TEST(ArrivalWindow, MinStddevGuardsDegenerateWindows) {
  // Perfectly regular arrivals would give stddev 0 and an instant-suspect
  // cliff; the floor keeps phi finite near the expected arrival.
  ArrivalWindow w(8);
  for (int i = 1; i <= 8; ++i) w.observe(from_seconds(i));
  const double phi = w.phi(from_seconds(9.05), from_millis(100));
  EXPECT_GT(phi, 0.0);
  EXPECT_LT(phi, 3.0);
}

using Cluster = runtime::BaselineCluster<HeartbeatDetector>;

Cluster make_cluster(std::uint32_t n, double threshold,
                     std::unique_ptr<net::DelayModel> delays,
                     std::uint64_t seed = 1) {
  return Cluster(n, net::Topology::full(n), std::move(delays), seed,
                 [=](ProcessId self) {
                   HeartbeatConfig c;
                   c.self = self;
                   c.n = n;
                   c.period = from_millis(100);
                   c.rule = PhiAccrual{.threshold = threshold,
                                       .window = 32,
                                       .poll = from_millis(20)};
                   c.initial_delay = from_millis(self.value);
                   return c;
                 });
}

TEST(PhiAccrual, StableClusterStaysClean) {
  auto c = make_cluster(4, 8.0,
                        std::make_unique<net::ConstantDelay>(from_millis(2)));
  c.start();
  c.run_for(from_seconds(15));
  metrics::Analysis a(c.log(), 4, from_seconds(15));
  EXPECT_TRUE(a.false_suspicions().empty());
}

TEST(PhiAccrual, DetectsCrash) {
  auto c = make_cluster(4, 8.0,
                        std::make_unique<net::ConstantDelay>(from_millis(2)));
  runtime::CrashPlan plan;
  plan.entries.push_back({ProcessId{1}, from_seconds(5)});
  c.start(plan);
  c.run_for(from_seconds(20));
  metrics::Analysis a(c.log(), 4, from_seconds(20));
  EXPECT_TRUE(a.strong_completeness());
  const auto ss = a.crash_summaries();
  ASSERT_EQ(ss.size(), 1u);
  // Accrual reacts within a few periods on a tight distribution.
  EXPECT_LT(ss[0].latencies.max(), 5.0);
}

TEST(PhiAccrual, LowerThresholdDetectsFasterButFalseSuspects) {
  auto run = [](double threshold) {
    auto c = make_cluster(
        4, threshold,
        std::make_unique<net::ExponentialDelay>(from_millis(5),
                                                from_millis(60)),
        11);
    runtime::CrashPlan plan;
    plan.entries.push_back({ProcessId{1}, from_seconds(10)});
    c.start(plan);
    c.run_for(from_seconds(30));
    metrics::Analysis a(c.log(), 4, from_seconds(30));
    const auto ss = a.crash_summaries();
    const double latency =
        ss.empty() || ss[0].latencies.empty() ? 1e9 : ss[0].latencies.mean();
    return std::make_pair(latency, a.false_suspicions().size());
  };
  const auto [lat_low, fs_low] = run(1.0);
  const auto [lat_high, fs_high] = run(10.0);
  EXPECT_LT(lat_low, lat_high);   // aggressive threshold detects sooner
  EXPECT_GE(fs_low, fs_high);     // ...at the cost of more false suspicions
  EXPECT_GT(fs_low, 0u);
}

}  // namespace
}  // namespace mmrfd::baselines
