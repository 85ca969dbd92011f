// RoundDriver without threads or sockets: a fake clock and a recording send
// callback drive one process's rounds through the fan-out, resend, give-up
// and pacing rules the simulated and live adapters share.
#include "core/round_driver.h"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <vector>

#include "obs/metrics_registry.h"

namespace mmrfd::core {
namespace {

struct Harness {
  obs::MetricsRegistry registry;
  RoundDriver<DetectorCore> driver;
  TimePoint now{kTimeZero};
  std::vector<ProcessId> peers;  // the adapter's fan-out order
  std::vector<Outgoing> sent;    // the last fire()'s transmissions
  std::map<std::uint32_t, QueryMessage> last_query;  // per peer

  Harness(std::uint32_t n, std::uint32_t f, RoundDriverConfig config)
      : driver(detector(n, f), with_counters(config)) {
    for (std::uint32_t i = 1; i < n; ++i) peers.push_back(ProcessId{i});
  }

  static DetectorConfig detector(std::uint32_t n, std::uint32_t f) {
    DetectorConfig c;
    c.self = ProcessId{0};
    c.n = n;
    c.f = f;
    c.giveup_rounds = 2;
    return c;
  }

  RoundDriverConfig with_counters(RoundDriverConfig config) {
    config.quorums = &registry.counter("quorums");
    config.rounds = &registry.counter("rounds");
    config.resend_waves = &registry.counter("resend_waves");
    return config;
  }

  std::uint64_t count(const char* name) {
    return registry.counter(name).value();
  }

  /// Fires the driver at `at`, recording what it sends.
  void fire_at(TimePoint at) {
    now = at;
    sent.clear();
    driver.on_deadline(now, peers, [this](Outgoing&& q) {
      last_query[q.to.value] = std::get<QueryMessage>(q.full ? *q.full
                                                             : q.delta);
      sent.push_back(std::move(q));
    });
  }

  /// Moves the clock to the driver's deadline and fires it.
  void fire() { fire_at(*driver.deadline()); }

  /// `from` answers its latest query; `ack` acknowledges its epoch, which
  /// lets later rounds send it deltas. True at the quorum.
  bool answer(std::uint32_t from, bool ack = true) {
    const QueryMessage& q = last_query.at(from);
    return driver.handle_response(
        now, ProcessId{from}, ResponseMessage{q.seq, ack ? q.epoch : 0});
  }

  /// One whole round: issue (finishing the previous one), then answers.
  void round(std::initializer_list<std::uint32_t> responders) {
    fire();
    for (const std::uint32_t p : responders) answer(p);
    ASSERT_TRUE(driver.core().query_terminated());
  }

  [[nodiscard]] std::vector<std::uint32_t> targets() const {
    std::vector<std::uint32_t> out;
    for (const Outgoing& q : sent) out.push_back(q.to.value);
    return out;
  }
};

RoundDriverConfig timing(std::optional<Duration> resend) {
  RoundDriverConfig c;
  c.pacing = from_millis(100);
  c.resend = resend;
  return c;
}

TEST(RoundDriver, FirstWaveHonoursGiveUpSkipsLaterWavesDoNot) {
  // n = 4, f = 1: quorum 3, at most one skip. Peer 3 stays silent, so its
  // suspicion streak reaches 3 after three rounds; 3 % K != 0 makes round
  // 4 a skip round rather than a probe.
  Harness h(4, 1, timing(from_millis(500)));
  for (int r = 0; r < 3; ++r) h.round({1, 2});
  h.fire();  // round 4
  ASSERT_FALSE(h.driver.core().should_query(ProcessId{3}));
  EXPECT_EQ(h.targets(), (std::vector<std::uint32_t>{1, 2}));
  h.answer(1);  // short of quorum: self + p1

  h.fire();  // first wave: p2 only, the skip still holds
  EXPECT_EQ(h.targets(), (std::vector<std::uint32_t>{2}));
  h.fire();  // second wave: every silent peer, the skipped one included
  EXPECT_EQ(h.targets(), (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(h.count("resend_waves"), 2u);
}

TEST(RoundDriver, ResendsCarryTheFullEncodingAndStopAtQuorum) {
  Harness h(4, 1, timing(from_millis(500)));
  h.round({1, 2});  // p3 silent: suspected, the state epoch moves
  h.round({1, 2});  // p1 and p2 acknowledge that epoch
  h.fire();         // round 3: p1 and p2 get deltas
  for (const Outgoing& q : h.sent) {
    if (q.to.value != 3) {
      EXPECT_EQ(q.full, nullptr);
      EXPECT_TRUE(std::get<QueryMessage>(q.delta).is_delta());
    }
  }
  h.answer(1);

  h.fire();  // a wave to p2 and p3: one shared full payload
  ASSERT_EQ(h.targets(), (std::vector<std::uint32_t>{2, 3}));
  ASSERT_NE(h.sent[0].full, nullptr);
  EXPECT_EQ(h.sent[0].full, h.sent[1].full);
  EXPECT_FALSE(std::get<QueryMessage>(*h.sent[0].full).is_delta());

  EXPECT_TRUE(h.answer(2));  // quorum
  const QuerySeq seq = h.driver.core().query_seq();
  h.fire();  // the pacing deadline: no wave, the next round
  EXPECT_EQ(h.driver.core().query_seq(), seq + 1);
  EXPECT_EQ(h.driver.core().rounds_completed(), 3u);
  EXPECT_EQ(h.count("resend_waves"), 1u);
  EXPECT_EQ(h.count("quorums"), 3u);
  EXPECT_EQ(h.count("rounds"), 3u);
}

TEST(RoundDriver, FanOutSharesOneFullPayloadInAdapterOrder) {
  // n = 6, f = 2: quorum 4, at most two skips. p5 never answers; p3 and p4
  // answer without acknowledging, so they stay on the full encoding.
  Harness h(6, 2, timing(std::nullopt));
  h.peers = {ProcessId{4}, ProcessId{2}, ProcessId{5}, ProcessId{1},
             ProcessId{3}};
  h.fire();  // round 1: nothing acknowledged, everyone shares one payload
  EXPECT_EQ(h.targets(), (std::vector<std::uint32_t>{4, 2, 5, 1, 3}));
  for (const Outgoing& q : h.sent) EXPECT_EQ(q.full, h.sent[0].full);
  for (int r = 0; r < 3; ++r) {
    for (const std::uint32_t p : {1u, 2u}) h.answer(p);
    for (const std::uint32_t p : {3u, 4u}) h.answer(p, /*ack=*/false);
    ASSERT_TRUE(h.driver.core().query_terminated());
    h.fire();
  }
  // Round 4: p5 skipped, the rest in the adapter's order.
  ASSERT_FALSE(h.driver.core().should_query(ProcessId{5}));
  ASSERT_EQ(h.targets(), (std::vector<std::uint32_t>{4, 2, 1, 3}));
  ASSERT_NE(h.sent[0].full, nullptr);
  EXPECT_EQ(h.sent[0].full, h.sent[3].full);  // p4 and p3
  EXPECT_EQ(h.sent[1].full, nullptr);         // p2: delta
  EXPECT_EQ(h.sent[2].full, nullptr);         // p1: delta
}

TEST(RoundDriver, QuorumOfOneTerminatesAtIssue) {
  Harness h(3, 2, timing(from_millis(500)));  // f = n - 1
  h.fire_at(from_millis(7));
  EXPECT_TRUE(h.driver.core().query_terminated());
  EXPECT_EQ(h.sent.size(), 2u);
  EXPECT_EQ(*h.driver.deadline(), from_millis(107));  // pacing, no resend
  EXPECT_EQ(h.count("quorums"), 1u);
}

TEST(RoundDriver, DeadlineIsResendUntilQuorumThenJitteredPacing) {
  RoundDriverConfig c = timing(from_millis(500));
  c.pacing_jitter = 0.2;
  c.jitter_seed = 9;
  Harness h(4, 1, c);
  std::vector<Duration> pauses;
  for (int r = 0; r < 20; ++r) {
    h.fire();
    const TimePoint issued = h.now;
    EXPECT_EQ(*h.driver.deadline(), issued + from_millis(500));
    h.now = issued + from_millis(3);
    h.answer(1);  // still short of quorum: the resend deadline stays
    EXPECT_EQ(*h.driver.deadline(), issued + from_millis(500));
    h.fire_at(issued + from_millis(499));  // not due: nothing happens
    EXPECT_TRUE(h.sent.empty());
    h.answer(2);
    const Duration pause = *h.driver.deadline() - h.now;
    EXPECT_GE(pause, from_millis(80));
    EXPECT_LE(pause, from_millis(120));
    pauses.push_back(pause);
  }
  EXPECT_NE(pauses.front(), pauses.back());  // one draw per round
}

TEST(RoundDriver, WithoutResendNoResendDeadline) {
  Harness h(4, 1, timing(std::nullopt));
  h.fire_at(kTimeZero);
  EXPECT_FALSE(h.driver.deadline().has_value());
  h.fire_at(from_seconds(3600));  // nothing is due, however late
  EXPECT_TRUE(h.sent.empty());
  EXPECT_EQ(h.count("resend_waves"), 0u);
  h.answer(1);
  EXPECT_FALSE(h.driver.deadline().has_value());
  h.answer(2);
  EXPECT_EQ(*h.driver.deadline(), from_seconds(3600) + from_millis(100));
  h.fire();
  EXPECT_FALSE(h.driver.deadline().has_value());
}

TEST(RoundDriver, RejectsNonPositiveResend) {
  for (const Duration resend : {Duration::zero(), from_millis(-1)}) {
    EXPECT_THROW(RoundDriver<DetectorCore>(Harness::detector(4, 1),
                                           timing(resend)),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace mmrfd::core
