#include "baselines/heartbeat.h"

#include <gtest/gtest.h>

#include "metrics/analysis.h"
#include "runtime/baseline_cluster.h"

namespace mmrfd::baselines {
namespace {

using Cluster = runtime::BaselineCluster<GossipDetector>;

Cluster make_cluster(std::uint32_t n, net::Topology topo, Duration timeout) {
  return Cluster(n, std::move(topo),
                 std::make_unique<net::ConstantDelay>(from_millis(2)), 1,
                 [=](ProcessId self) {
                   HeartbeatConfig c;
                   c.self = self;
                   c.n = n;
                   c.period = from_millis(100);
                   c.rule = FixedTimeout{timeout};
                   c.initial_delay = from_millis(self.value);
                   return c;
                 });
}

TEST(GossipDetector, StableFullMeshStaysClean) {
  auto c = make_cluster(5, net::Topology::full(5), from_millis(400));
  c.start();
  c.run_for(from_seconds(10));
  EXPECT_TRUE(c.log().events().empty());
}

TEST(GossipDetector, DetectsCrashOnFullMesh) {
  auto c = make_cluster(5, net::Topology::full(5), from_millis(400));
  runtime::CrashPlan plan;
  plan.entries.push_back({ProcessId{3}, from_seconds(3)});
  c.start(plan);
  c.run_for(from_seconds(10));
  metrics::Analysis a(c.log(), 5, from_seconds(10));
  EXPECT_TRUE(a.strong_completeness());
}

TEST(GossipDetector, CountersPropagateTransitivelyOnRing) {
  // On a ring, p0 and p2 are not neighbors; p0's counter still reaches p2
  // through p1 — the transitive propagation plain heartbeat lacks.
  auto c = make_cluster(5, net::Topology::ring(5), from_seconds(1));
  c.start();
  c.run_for(from_seconds(5));
  EXPECT_GT(c.detector(ProcessId{2}).counters()[0], 30u);
  metrics::Analysis a(c.log(), 5, from_seconds(5));
  EXPECT_TRUE(a.false_suspicions().empty());
}

TEST(GossipDetector, RingCrashEventuallyDetectedByAll) {
  auto c = make_cluster(6, net::Topology::ring(6), from_seconds(1));
  runtime::CrashPlan plan;
  plan.entries.push_back({ProcessId{2}, from_seconds(3)});
  c.start(plan);
  c.run_for(from_seconds(15));
  metrics::Analysis a(c.log(), 6, from_seconds(15));
  EXPECT_TRUE(a.strong_completeness());
}

}  // namespace
}  // namespace mmrfd::baselines
