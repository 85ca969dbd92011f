// Edge-case coverage for the baseline detectors that the main suites skim:
// minimal cluster sizes, detector restarts of suspicion, timer semantics
// around exact boundaries, gossip on sparse topologies with failures.
#include <gtest/gtest.h>

#include "baselines/heartbeat.h"
#include "metrics/analysis.h"
#include "runtime/baseline_cluster.h"

namespace mmrfd::baselines {
namespace {

TEST(HeartbeatEdge, TwoProcessMutualMonitoring) {
  using Cluster = runtime::BaselineCluster<HeartbeatDetector>;
  Cluster c(2, net::Topology::full(2),
            std::make_unique<net::ConstantDelay>(from_millis(1)), 1,
            [](ProcessId self) {
              HeartbeatConfig cfg;
              cfg.self = self;
              cfg.n = 2;
              cfg.period = from_millis(50);
              cfg.rule = FixedTimeout{from_millis(150)};
              cfg.initial_delay = from_millis(self.value);
              return cfg;
            });
  runtime::CrashPlan plan;
  plan.entries.push_back({ProcessId{1}, from_seconds(1)});
  c.start(plan);
  c.run_for(from_seconds(3));
  EXPECT_TRUE(c.detector(ProcessId{0}).is_suspected(ProcessId{1}));
  EXPECT_FALSE(c.detector(ProcessId{0}).is_suspected(ProcessId{0}));
}

TEST(HeartbeatEdge, NeverStartedPeerTimesOutToo) {
  // A peer that never sends a single heartbeat must still be suspected:
  // timers are armed at start for every peer, not on first contact.
  sim::Simulation sim;
  HeartbeatNetwork net(sim, net::Topology::full(3),
                       std::make_unique<net::ConstantDelay>(from_millis(1)),
                       1);
  HeartbeatConfig cfg;
  cfg.self = ProcessId{0};
  cfg.n = 3;
  cfg.period = from_millis(50);
  cfg.rule = FixedTimeout{from_millis(200)};
  HeartbeatDetector d(sim, net, cfg);
  // p1 chats, p2 stays silent forever.
  net.set_handler(ProcessId{1}, [](ProcessId, const HeartbeatMessage&) {});
  net.set_handler(ProcessId{2}, [](ProcessId, const HeartbeatMessage&) {});
  d.start();
  sim.schedule(from_millis(100), [&] {
    net.send(ProcessId{1}, ProcessId{0}, HeartbeatMessage{1});
  });
  sim.run_for(from_millis(260));
  EXPECT_FALSE(d.is_suspected(ProcessId{1}));
  EXPECT_TRUE(d.is_suspected(ProcessId{2}));
}

TEST(PhiAccrualEdge, BootstrapSuspectsBornDeadPeer) {
  // The Akka-style first-heartbeat estimate: a peer that crashes before its
  // first heartbeat must still accrue suspicion (the cold-start hole that
  // broke consensus termination before the fix — see E6 notes).
  sim::Simulation sim;
  HeartbeatNetwork net(sim, net::Topology::full(2),
                       std::make_unique<net::ConstantDelay>(from_millis(1)),
                       1);
  HeartbeatConfig cfg;
  cfg.self = ProcessId{0};
  cfg.n = 2;
  cfg.period = from_millis(100);
  cfg.rule = PhiAccrual{.threshold = 8.0, .poll = from_millis(20)};
  HeartbeatDetector d(sim, net, cfg);
  net.set_handler(ProcessId{1}, [](ProcessId, const HeartbeatMessage&) {});
  d.start();  // p1 never sends anything
  sim.run_for(from_seconds(3));
  EXPECT_TRUE(d.is_suspected(ProcessId{1}));
}

TEST(PhiAccrualEdge, PhiAccessorTracksSilence) {
  sim::Simulation sim;
  HeartbeatNetwork net(sim, net::Topology::full(2),
                       std::make_unique<net::ConstantDelay>(from_millis(1)),
                       1);
  HeartbeatConfig cfg;
  cfg.self = ProcessId{0};
  cfg.n = 2;
  cfg.period = from_millis(100);
  cfg.rule = PhiAccrual{};
  HeartbeatDetector d(sim, net, cfg);
  net.set_handler(ProcessId{1}, [](ProcessId, const HeartbeatMessage&) {});
  d.start();
  for (int i = 1; i <= 5; ++i) {
    net.send(ProcessId{1}, ProcessId{0},
             HeartbeatMessage{static_cast<std::uint64_t>(i)});
    sim.run_for(from_millis(100));
  }
  const double phi_fresh = d.phi(ProcessId{1});
  sim.run_for(from_seconds(2));  // silence
  EXPECT_GT(d.phi(ProcessId{1}), phi_fresh);
}

TEST(GossipEdge, StarTopologyLeafDetectsRemoteLeafCrash) {
  // Leaves only talk to the hub; a leaf's crash must reach the other leaves
  // transitively through the hub's merged counter vector.
  using Cluster = runtime::BaselineCluster<GossipDetector>;
  Cluster c(5, net::Topology::star(5),
            std::make_unique<net::ConstantDelay>(from_millis(2)), 3,
            [](ProcessId self) {
              HeartbeatConfig cfg;
              cfg.self = self;
              cfg.n = 5;
              cfg.period = from_millis(100);
              cfg.rule = FixedTimeout{from_seconds(1)};
              cfg.initial_delay = from_millis(self.value);
              return cfg;
            });
  runtime::CrashPlan plan;
  plan.entries.push_back({ProcessId{4}, from_seconds(2)});
  c.start(plan);
  c.run_for(from_seconds(10));
  EXPECT_TRUE(c.detector(ProcessId{1}).is_suspected(ProcessId{4}));
  EXPECT_FALSE(c.detector(ProcessId{1}).is_suspected(ProcessId{2}));
}

TEST(GossipEdge, HubCrashOnStarSuspectsEverythingBeyondIt) {
  // When the star's hub dies, leaves lose all transitive information: every
  // other leaf times out too (they are genuinely unreachable). Documents
  // the topology-sensitivity that the full mesh hides.
  using Cluster = runtime::BaselineCluster<GossipDetector>;
  Cluster c(4, net::Topology::star(4),
            std::make_unique<net::ConstantDelay>(from_millis(2)), 5,
            [](ProcessId self) {
              HeartbeatConfig cfg;
              cfg.self = self;
              cfg.n = 4;
              cfg.period = from_millis(100);
              cfg.rule = FixedTimeout{from_millis(800)};
              cfg.initial_delay = from_millis(self.value);
              return cfg;
            });
  runtime::CrashPlan plan;
  plan.entries.push_back({ProcessId{0}, from_seconds(2)});  // the hub
  c.start(plan);
  c.run_for(from_seconds(6));
  for (std::uint32_t leaf = 1; leaf < 4; ++leaf) {
    EXPECT_TRUE(c.detector(ProcessId{leaf}).is_suspected(ProcessId{0}));
    // And (unavoidably) the other leaves as well.
    EXPECT_TRUE(c.detector(ProcessId{leaf})
                    .is_suspected(ProcessId{leaf == 1 ? 2u : 1u}));
  }
}

TEST(AdaptiveEdge, MarginZeroIsHairTrigger) {
  // alpha = 0: any delay beyond the learned mean causes suspicion. With
  // exponential jitter this must produce false suspicions — the knob's
  // lower extreme, complementing E7's sweep.
  using Cluster = runtime::BaselineCluster<HeartbeatDetector>;
  Cluster c(3, net::Topology::full(3),
            std::make_unique<net::ExponentialDelay>(from_millis(1),
                                                    from_millis(20)),
            7, [](ProcessId self) {
              HeartbeatConfig cfg;
              cfg.self = self;
              cfg.n = 3;
              cfg.period = from_millis(100);
              cfg.rule = AdaptiveTimeout{.safety_margin = Duration::zero()};
              cfg.initial_delay = from_millis(self.value);
              return cfg;
            });
  c.start();
  c.run_for(from_seconds(10));
  metrics::Analysis a(c.log(), 3, from_seconds(10));
  EXPECT_GT(a.false_suspicions().size(), 0u);
}

// Fixed-seed schedule pins: one crash + delay-spike cluster per baseline,
// hashed by runtime_cluster_test's golden::digest rule (FNV-1a over the
// event stream, the crashes, and messages sent and delivered), with the
// simulator's event count beside it. p5 crashes at 3 s and p3's links slow
// 100x over [4 s, 6 s), so each run suspects, clears and detects. Any change
// to the baselines must reproduce every schedule bit for bit.
namespace golden {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

template <typename Cluster>
std::uint64_t digest(Cluster& cluster) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& e : cluster.log().events()) {
    h = fnv1a(h, static_cast<std::uint64_t>(e.when.count()));
    h = fnv1a(h, e.observer.value);
    h = fnv1a(h, e.subject.value);
    h = fnv1a(h, static_cast<std::uint64_t>(e.kind));
    h = fnv1a(h, e.tag);
  }
  for (const auto& c : cluster.log().crashes()) {
    h = fnv1a(h, static_cast<std::uint64_t>(c.when.count()));
    h = fnv1a(h, c.subject.value);
  }
  h = fnv1a(h, cluster.network().stats().messages_sent);
  h = fnv1a(h, cluster.network().stats().messages_delivered);
  return h;
}

struct Pin {
  std::uint64_t digest;
  std::uint64_t events_fired;
};

template <typename Detector>
Pin pinned_run(const SuspicionRule& rule) {
  constexpr std::uint32_t n = 8;
  auto delays = std::make_unique<net::SpikeDelay>(
      net::make_preset(net::DelayPreset::kExponential, from_millis(5)),
      from_seconds(4), from_seconds(6), 100.0,
      std::vector<ProcessId>{ProcessId{3}});
  runtime::BaselineCluster<Detector> c(
      n, net::Topology::full(n), std::move(delays), 77, [&](ProcessId self) {
        HeartbeatConfig cfg;
        cfg.self = self;
        cfg.n = n;
        cfg.period = from_millis(100);
        cfg.rule = rule;
        cfg.initial_delay = from_millis(7 * self.value);
        return cfg;
      });
  runtime::CrashPlan plan;
  plan.entries.push_back({ProcessId{5}, from_seconds(3)});
  c.start(plan);
  c.run_for(from_seconds(12));
  std::size_t suspects = 0, clears = 0;
  for (const auto& e : c.log().events()) {
    (e.kind == metrics::SuspicionEventKind::kCleared ? clears : suspects)++;
  }
  EXPECT_GT(suspects, n - 1);  // the crash, plus the spike's suspicions
  EXPECT_GT(clears, 0u);       // ...which the spike's end clears
  return {digest(c), c.simulation().events_fired()};
}

}  // namespace golden

TEST(BaselineGolden, HeartbeatSchedulePinned) {
  const auto pin =
      golden::pinned_run<HeartbeatDetector>(FixedTimeout{from_millis(300)});
  EXPECT_EQ(pin.digest, 9012284861986540699ull);
  EXPECT_EQ(pin.events_fired, 7004ull);
}

TEST(BaselineGolden, AdaptiveSchedulePinned) {
  const auto pin = golden::pinned_run<HeartbeatDetector>(
      AdaptiveTimeout{.safety_margin = from_millis(100)});
  EXPECT_EQ(pin.digest, 931789364304798363ull);
  EXPECT_EQ(pin.events_fired, 7020ull);
}

TEST(BaselineGolden, PhiAccrualSchedulePinned) {
  const auto pin = golden::pinned_run<HeartbeatDetector>(
      PhiAccrual{.threshold = 3.0, .window = 32, .poll = from_millis(20)});
  EXPECT_EQ(pin.digest, 8890719630650779041ull);
  EXPECT_EQ(pin.events_fired, 11300ull);
}

TEST(BaselineGolden, GossipSchedulePinned) {
  const auto pin =
      golden::pinned_run<GossipDetector>(FixedTimeout{from_millis(200)});
  EXPECT_EQ(pin.digest, 12083757482872117422ull);
  EXPECT_EQ(pin.events_fired, 7005ull);
}

}  // namespace
}  // namespace mmrfd::baselines
