#include "baselines/heartbeat.h"

#include <gtest/gtest.h>

#include "metrics/analysis.h"
#include "runtime/baseline_cluster.h"

namespace mmrfd::baselines {
namespace {

using Cluster = runtime::BaselineCluster<HeartbeatDetector>;

Cluster make_cluster(std::uint32_t n, Duration period, Duration timeout,
                     std::unique_ptr<net::DelayModel> delays,
                     std::uint64_t seed = 1) {
  return Cluster(n, net::Topology::full(n), std::move(delays), seed,
                 [=](ProcessId self) {
                   HeartbeatConfig c;
                   c.self = self;
                   c.n = n;
                   c.period = period;
                   c.rule = FixedTimeout{timeout};
                   c.initial_delay = from_millis(self.value);  // stagger
                   return c;
                 });
}

TEST(HeartbeatDetector, NoSuspicionsWhenDelaysFitTimeout) {
  auto c = make_cluster(5, from_millis(100), from_millis(300),
                        std::make_unique<net::ConstantDelay>(from_millis(5)));
  c.start();
  c.run_for(from_seconds(10));
  EXPECT_TRUE(c.log().events().empty());
}

TEST(HeartbeatDetector, CrashDetectedWithinTheta) {
  auto c = make_cluster(5, from_millis(100), from_millis(300),
                        std::make_unique<net::ConstantDelay>(from_millis(5)));
  runtime::CrashPlan plan;
  plan.entries.push_back({ProcessId{2}, from_seconds(3)});
  c.start(plan);
  c.run_for(from_seconds(10));
  metrics::Analysis a(c.log(), 5, from_seconds(10));
  const auto ss = a.crash_summaries();
  ASSERT_EQ(ss.size(), 1u);
  EXPECT_EQ(ss[0].detected_by, 4u);
  ASSERT_TRUE(ss[0].completeness_latency.has_value());
  // Detection bounded by Theta (+ one delivery delay).
  EXPECT_LE(*ss[0].completeness_latency, from_millis(310));
  EXPECT_GE(*ss[0].completeness_latency, from_millis(195));  // >= Theta-Delta
}

TEST(HeartbeatDetector, SlowLinksCauseFalseSuspicionsUnlikeTimeFree) {
  // Delays frequently exceeding Theta make the fixed-timeout detector
  // false-suspect correct processes.
  auto c = make_cluster(
      4, from_millis(100), from_millis(150),
      std::make_unique<net::ExponentialDelay>(from_millis(50), from_millis(150)),
      7);
  c.start();
  c.run_for(from_seconds(20));
  metrics::Analysis a(c.log(), 4, from_seconds(20));
  EXPECT_GT(a.false_suspicions().size(), 0u);
}

TEST(HeartbeatDetector, RecoversWhenHeartbeatArrives) {
  // A single long-delayed heartbeat causes suspicion, the next one clears it.
  auto c = make_cluster(
      2, from_millis(100), from_millis(150),
      std::make_unique<net::SpikeDelay>(
          std::make_unique<net::ConstantDelay>(from_millis(1)),
          from_seconds(2), from_millis(2300), 400.0));
  c.start();
  c.run_for(from_seconds(10));
  metrics::Analysis a(c.log(), 2, from_seconds(10));
  const auto fs = a.false_suspicions();
  ASSERT_FALSE(fs.empty());
  for (const auto& f : fs) EXPECT_TRUE(f.cleared_at.has_value());
}

TEST(HeartbeatDetector, StaleHeartbeatIgnored) {
  // Out-of-order delivery: an older seq must not clear a suspicion.
  sim::Simulation sim;
  HeartbeatNetwork net(sim, net::Topology::full(2),
                       std::make_unique<net::ConstantDelay>(from_millis(1)),
                       1);
  HeartbeatConfig cfg;
  cfg.self = ProcessId{0};
  cfg.n = 2;
  cfg.period = from_millis(100);
  cfg.rule = FixedTimeout{from_millis(200)};
  HeartbeatDetector d(sim, net, cfg);
  d.start();
  // Inject heartbeats by hand via the network from p1's address.
  net.set_handler(ProcessId{1}, [](ProcessId, const HeartbeatMessage&) {});
  sim.run_for(from_millis(50));
  net.send(ProcessId{1}, ProcessId{0}, HeartbeatMessage{5});
  sim.run_for(from_millis(100));
  EXPECT_FALSE(d.is_suspected(ProcessId{1}));
  sim.run_for(from_millis(500));  // no further heartbeats: timeout
  EXPECT_TRUE(d.is_suspected(ProcessId{1}));
  net.send(ProcessId{1}, ProcessId{0}, HeartbeatMessage{4});  // stale
  sim.run_for(from_millis(50));
  EXPECT_TRUE(d.is_suspected(ProcessId{1}));
  net.send(ProcessId{1}, ProcessId{0}, HeartbeatMessage{6});  // fresh
  sim.run_for(from_millis(50));
  EXPECT_FALSE(d.is_suspected(ProcessId{1}));
}

}  // namespace
}  // namespace mmrfd::baselines
