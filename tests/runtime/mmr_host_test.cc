// Unit tests for the MmrHost driver: pacing, crash silence, recorder wiring.
#include "runtime/mmr_host.h"

#include <gtest/gtest.h>

#include "net/delay_model.h"
#include "runtime/cluster.h"

namespace mmrfd::runtime {
namespace {

struct HostFixture {
  sim::Simulation sim;
  MmrNetwork net;
  core::PropertyRecorder recorder;
  std::vector<std::unique_ptr<MmrHost>> hosts;

  explicit HostFixture(std::uint32_t n, Duration pacing,
                       Duration delay = from_millis(1))
      : net(sim, net::Topology::full(n),
            std::make_unique<net::ConstantDelay>(delay), 1),
        recorder(n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      MmrHostConfig cfg;
      cfg.detector.self = ProcessId{i};
      cfg.detector.n = n;
      cfg.detector.f = 1;
      cfg.pacing = pacing;
      cfg.initial_delay = from_millis(i);
      hosts.push_back(
          std::make_unique<MmrHost>(sim, net, cfg, &recorder, nullptr));
    }
  }
  void start_all() {
    for (auto& h : hosts) h->start();
  }
};

TEST(MmrHost, RoundCadenceMatchesPacingPlusRoundTrip) {
  HostFixture f(3, from_millis(100), from_millis(5));
  f.start_all();
  f.sim.run_for(from_seconds(10));
  // One round = quorum wait (~2 * 5 ms) + pacing 100 ms => ~90 rounds/10 s.
  const auto rounds = f.hosts[0]->detector().rounds_completed();
  EXPECT_GE(rounds, 80u);
  EXPECT_LE(rounds, 100u);
}

TEST(MmrHost, CrashSilencesTraffic) {
  HostFixture f(3, from_millis(100));
  f.start_all();
  f.sim.run_for(from_seconds(2));
  f.hosts[2]->crash();
  const auto sent_at_crash = f.net.stats().messages_sent;
  const auto rounds_at_crash = f.hosts[2]->detector().rounds_completed();
  f.sim.run_for(from_seconds(2));
  EXPECT_EQ(f.hosts[2]->detector().rounds_completed(), rounds_at_crash);
  // Remaining two hosts keep sending (4 msgs per round pair at least).
  EXPECT_GT(f.net.stats().messages_sent, sent_at_crash + 20);
}

TEST(MmrHost, RecorderSeesEveryTerminatedQuery) {
  HostFixture f(3, from_millis(100));
  f.start_all();
  f.sim.run_for(from_seconds(5));
  std::uint64_t total_rounds = 0;
  for (const auto& h : f.hosts) {
    total_rounds += h->detector().rounds_completed();
  }
  // Every terminated round was recorded (in-flight final rounds may add 1
  // per host).
  EXPECT_GE(f.recorder.records().size(), total_rounds);
  EXPECT_LE(f.recorder.records().size(), total_rounds + f.hosts.size());
  for (const auto& r : f.recorder.records()) {
    // Winning sets have exactly quorum = n - f = 2 members and include the
    // issuer.
    EXPECT_EQ(r.winners().size(), 2u);
    EXPECT_TRUE(r.won(r.issuer));
  }
}

TEST(MmrHost, SuspectsAreExchangedAcrossHosts) {
  HostFixture f(4, from_millis(50));
  f.start_all();
  f.sim.run_for(from_seconds(1));
  f.hosts[3]->crash();
  f.sim.run_for(from_seconds(5));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(f.hosts[static_cast<std::size_t>(i)]
                    ->detector()
                    .is_suspected(ProcessId{3}));
  }
  // Tags agree after flooding: all three hold the same <p3, tag> entry.
  const auto tag0 =
      f.hosts[0]->detector().suspicion_tag(ProcessId{3});
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(
        f.hosts[static_cast<std::size_t>(i)]->detector().suspicion_tag(
            ProcessId{3}),
        tag0);
  }
}

TEST(MmrHost, StaggeredStartAvoidsLockstep) {
  HostFixture f(3, from_millis(100));
  f.start_all();
  f.sim.run_for(from_millis(350));
  // Hosts started at 0/1/2 ms: sequence numbers may differ by at most 1.
  const auto s0 = f.hosts[0]->detector().query_seq();
  const auto s2 = f.hosts[2]->detector().query_seq();
  EXPECT_LE(s0 > s2 ? s0 - s2 : s2 - s0, 1u);
  EXPECT_GE(s0, 3u);
}

}  // namespace
}  // namespace mmrfd::runtime
