// RoundDriver without threads or sockets: a fake clock and a recording send
// callback drive one process's rounds through the fan-out, resend, late
// wave, give-up and pacing rules the simulated and live adapters share.
#include "core/round_driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/rng.h"
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
    driver.on_deadline(now, PeerRange(peers), [this](Outgoing&& q) {
      last_query[q.to.value] = std::get<QueryMessage>(*q.query);
      sent.push_back(std::move(q));
    });
  }

  /// Moves the clock to the driver's deadline and fires it.
  void fire() { fire_at(*driver.deadline()); }

  /// Fires deadlines until the next round is issued (through the late wave,
  /// when waves are on); `sent` then holds the new round's fan-out.
  void next_round() {
    const QuerySeq seq = driver.core().query_seq();
    do {
      fire();
    } while (driver.core().query_seq() == seq);
  }

  /// `from` answers its latest query; `ack` acknowledges its epoch, which
  /// lets later rounds send it deltas. True at the quorum.
  bool answer(std::uint32_t from, bool ack = true) {
    const QueryMessage& q = last_query.at(from);
    return driver.handle_response(
        now, ProcessId{from}, ResponseMessage{q.seq, ack ? q.epoch : 0});
  }

  /// One whole round: issue (finishing the previous one), then answers.
  void round(std::initializer_list<std::uint32_t> responders) {
    next_round();
    for (const std::uint32_t p : responders) answer(p);
    ASSERT_TRUE(driver.core().query_terminated());
  }

  [[nodiscard]] std::vector<std::uint32_t> targets() const {
    std::vector<std::uint32_t> out;
    for (const Outgoing& q : sent) out.push_back(q.to.value);
    return out;
  }

  /// The payload the last fire() sent to `peer` (null: none).
  [[nodiscard]] std::shared_ptr<const Message> payload(
      std::uint32_t peer) const {
    for (const Outgoing& q : sent) {
      if (q.to.value == peer) return q.query;
    }
    ADD_FAILURE() << "nothing sent to p" << peer;
    return nullptr;
  }
};

const QueryMessage& query_of(const Outgoing& q) {
  return std::get<QueryMessage>(*q.query);
}

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
  const std::uint64_t late_waves = h.count("resend_waves");  // round 1's
  h.next_round();  // round 4
  ASSERT_FALSE(h.driver.core().should_query(ProcessId{3}));
  EXPECT_EQ(h.targets(), (std::vector<std::uint32_t>{1, 2}));
  h.answer(1);  // short of quorum: self + p1

  h.fire();  // first wave: p2 only, the skip still holds
  EXPECT_EQ(h.targets(), (std::vector<std::uint32_t>{2}));
  h.fire();  // second wave: every silent peer, the skipped one included
  EXPECT_EQ(h.targets(), (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(h.count("resend_waves") - late_waves, 2u);
}

TEST(RoundDriver, ResendsCarryTheFullEncodingAndStopAtQuorum) {
  Harness h(4, 1, timing(from_millis(500)));
  h.round({1, 2});  // p3 silent: suspected, the state epoch moves
  h.round({1, 2});  // p1 and p2 acknowledge that epoch
  const std::uint64_t late_waves = h.count("resend_waves");  // round 1's
  h.next_round();   // round 3: p1 and p2 get deltas
  for (const Outgoing& q : h.sent) {
    if (q.to.value != 3) {
      EXPECT_TRUE(query_of(q).is_delta());
    }
  }
  h.answer(1);

  h.fire();  // a wave to p2 and p3: one shared full payload
  ASSERT_EQ(h.targets(), (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(h.sent[0].query, h.sent[1].query);
  EXPECT_FALSE(query_of(h.sent[0]).is_delta());

  EXPECT_TRUE(h.answer(2));  // quorum
  const QuerySeq seq = h.driver.core().query_seq();
  h.next_round();  // the pacing deadlines: no wave, the next round
  EXPECT_EQ(h.driver.core().query_seq(), seq + 1);
  EXPECT_EQ(h.driver.core().rounds_completed(), 3u);
  EXPECT_EQ(h.count("resend_waves") - late_waves, 1u);
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
  EXPECT_FALSE(query_of(h.sent[0]).is_delta());
  for (const Outgoing& q : h.sent) EXPECT_EQ(q.query, h.sent[0].query);
  for (int r = 0; r < 3; ++r) {
    for (const std::uint32_t p : {1u, 2u}) h.answer(p);
    for (const std::uint32_t p : {3u, 4u}) h.answer(p, /*ack=*/false);
    ASSERT_TRUE(h.driver.core().query_terminated());
    h.next_round();
  }
  // Round 4: p5 skipped, the rest in the adapter's order.
  ASSERT_FALSE(h.driver.core().should_query(ProcessId{5}));
  ASSERT_EQ(h.targets(), (std::vector<std::uint32_t>{4, 2, 1, 3}));
  EXPECT_FALSE(query_of(h.sent[0]).is_delta());
  EXPECT_EQ(h.sent[0].query, h.sent[3].query);  // p4 and p3
  EXPECT_TRUE(query_of(h.sent[1]).is_delta());  // p2: delta
  EXPECT_TRUE(query_of(h.sent[2]).is_delta());  // p1: delta
}

TEST(RoundDriver, PeersOnOneAckedEpochShareOneDeltaOthersGetTheirOwnBase) {
  // n = 6, f = 2: quorum 4. Round 1 is all full; p5's silence raises the
  // state epoch. In round 2 p1..p3 acknowledge it and p4 falls silent,
  // raising the epoch again. In round 3 p3 answers without acknowledging,
  // so round 4 has two delta bases: p3's, and that of p1, p2 and p4.
  Harness h(6, 2, timing(std::nullopt));
  h.fire();
  for (const std::uint32_t p : {1u, 2u, 3u, 4u}) h.answer(p);
  h.next_round();  // round 2, at once: p5 newly suspected
  for (const std::uint32_t p : {1u, 2u, 3u}) h.answer(p);
  h.next_round();  // round 3, at once: p4 newly suspected
  const Epoch round2 = h.driver.core().acked_epoch(ProcessId{1});
  ASSERT_NE(round2, 0u);
  ASSERT_EQ(h.driver.core().acked_epoch(ProcessId{3}), round2);
  // Three peers on one base share one delta; p4 gets the full encoding.
  EXPECT_EQ(h.payload(1), h.payload(2));
  EXPECT_EQ(h.payload(1), h.payload(3));
  EXPECT_TRUE(h.last_query.at(1).is_delta());
  EXPECT_EQ(h.last_query.at(1).base_epoch, round2);
  EXPECT_FALSE(h.last_query.at(4).is_delta());
  for (const std::uint32_t p : {1u, 2u}) h.answer(p);
  h.answer(3, /*ack=*/false);
  h.answer(4);

  h.next_round();  // round 4
  const Epoch round3 = h.driver.core().acked_epoch(ProcessId{1});
  ASSERT_GT(round3, round2);
  ASSERT_EQ(h.driver.core().acked_epoch(ProcessId{3}), round2);
  EXPECT_EQ(h.payload(1), h.payload(2));
  EXPECT_EQ(h.payload(1), h.payload(4));
  EXPECT_EQ(h.last_query.at(1).base_epoch, round3);
  EXPECT_NE(h.payload(3), h.payload(1));
  EXPECT_TRUE(h.last_query.at(3).is_delta());
  EXPECT_EQ(h.last_query.at(3).base_epoch, round2);
}

TEST(RoundDriver, QuorumOfOneTerminatesAtIssue) {
  Harness h(3, 2, timing(from_millis(500)));  // f = n - 1
  h.fire_at(from_millis(7));
  EXPECT_TRUE(h.driver.core().query_terminated());
  EXPECT_EQ(h.sent.size(), 2u);
  h.fire();  // the late wave, halfway through the grace
  EXPECT_EQ(*h.driver.deadline(), from_millis(57));  // the grace, no resend
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
    const TimePoint quorum = h.now;
    h.fire();  // the late wave
    const Duration pause = *h.driver.deadline() - quorum;
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
  h.answer(2);  // p3 silent and unsuspected: still no late wave
  EXPECT_EQ(*h.driver.deadline(), from_seconds(3600) + from_millis(100));
  h.fire();
  EXPECT_FALSE(h.driver.deadline().has_value());
  EXPECT_EQ(h.driver.core().query_seq(), 2u);
  EXPECT_EQ(h.count("resend_waves"), 0u);
}

TEST(RoundDriver, LateWaveReachesSilentUnsuspectedPeersHalfwayThroughGrace) {
  // n = 7, f = 3: quorum 4 (self + 3), at most three skips. Setup rounds
  // leave p6 given up (skipped) and p5 suspected but still queried. In the
  // test round p1..p3 answer; p4..p6 stay silent.
  Harness h(7, 3, timing(from_millis(500)));
  for (int r = 0; r < 4; ++r) h.round({1, 2, 3, 4, 5});  // p6 silent
  h.round({1, 2, 3, 4});                                 // p5 silent too
  h.next_round();  // through round 5's late wave to p5
  const std::uint64_t waves = h.count("resend_waves");
  ASSERT_FALSE(h.driver.core().should_query(ProcessId{6}));
  ASSERT_TRUE(h.driver.core().should_query(ProcessId{5}));
  ASSERT_TRUE(h.driver.core().is_suspected(ProcessId{5}));
  h.now += from_millis(4);
  for (const std::uint32_t p : {1u, 2u}) EXPECT_FALSE(h.answer(p));
  EXPECT_TRUE(h.answer(3));
  const TimePoint quorum = h.now;
  EXPECT_EQ(*h.driver.deadline(), quorum + from_millis(25));

  h.fire_at(quorum + from_millis(24));  // not due: nothing happens
  EXPECT_TRUE(h.sent.empty());
  h.fire();  // the late wave: p4 only, never the suspected p5 or p6
  EXPECT_EQ(h.now, quorum + from_millis(25));
  ASSERT_EQ(h.targets(), (std::vector<std::uint32_t>{4}));
  EXPECT_FALSE(query_of(h.sent[0]).is_delta());
  EXPECT_EQ(h.count("resend_waves"), waves + 1);
  EXPECT_EQ(*h.driver.deadline(), quorum + from_millis(50));

  EXPECT_FALSE(h.answer(4));  // late, but before the round ends
  const QuerySeq seq = h.driver.core().query_seq();
  h.fire();  // the end of the grace: finish, nobody new to suspect
  EXPECT_EQ(h.now, quorum + from_millis(50));
  EXPECT_EQ(h.driver.core().query_seq(), seq);
  h.fire();  // the end of the pause: the next round
  EXPECT_EQ(h.now, quorum + from_millis(100));
  EXPECT_EQ(h.driver.core().query_seq(), seq + 1);
  EXPECT_FALSE(h.driver.core().is_suspected(ProcessId{4}));
  EXPECT_TRUE(h.driver.core().is_suspected(ProcessId{5}));
  EXPECT_TRUE(h.driver.core().is_suspected(ProcessId{6}));
  EXPECT_EQ(h.count("resend_waves"), waves + 1);
}

/// Round 1 of an n = 4, f = 1 cluster without waves (pause 100 ms): issued
/// at 0, p1 and p2 answer at `rtt`, which is the quorum; p3 stays silent.
void quorum_after(Harness& h, Duration rtt) {
  h.fire_at(kTimeZero);
  h.now = rtt;
  EXPECT_FALSE(h.answer(1));
  EXPECT_TRUE(h.answer(2));
}

TEST(RoundDriver, ResponseJustBeforeTheGraceEndsCounts) {
  Harness h(4, 1, timing(std::nullopt));
  quorum_after(h, from_millis(2));
  const TimePoint quorum = h.now;
  EXPECT_EQ(*h.driver.deadline(), quorum + from_millis(50));
  h.now = quorum + from_millis(49);
  EXPECT_FALSE(h.answer(3));  // after the quorum, inside the grace
  h.fire();                   // the grace's end: finish_round
  EXPECT_EQ(h.now, quorum + from_millis(50));
  EXPECT_EQ(h.driver.core().rounds_completed(), 1u);
  EXPECT_FALSE(h.driver.core().is_suspected(ProcessId{3}));
  EXPECT_TRUE(h.sent.empty());  // nobody new suspected: no issue yet
  EXPECT_EQ(*h.driver.deadline(), quorum + from_millis(100));
}

TEST(RoundDriver, ResponseJustAfterTheGraceIsDroppedAndItsPeerSuspected) {
  Harness h(4, 1, timing(std::nullopt));
  quorum_after(h, from_millis(2));
  const TimePoint quorum = h.now;
  const QueryMessage round1 = h.last_query.at(3);
  h.fire();  // the grace's end: p3 suspected
  EXPECT_EQ(h.now, quorum + from_millis(50));
  ASSERT_TRUE(h.driver.core().is_suspected(ProcessId{3}));
  h.now = quorum + from_millis(51);
  EXPECT_FALSE(h.driver.handle_response(
      h.now, ProcessId{3}, ResponseMessage{round1.seq, round1.epoch}));
  EXPECT_TRUE(h.driver.core().is_suspected(ProcessId{3}));
  EXPECT_FALSE(h.driver.core().responded(ProcessId{3}));  // not in round 2
}

TEST(RoundDriver, NewSuspicionIssuesAtOnceOtherwiseThePauseRunsOut) {
  Harness h(4, 1, timing(std::nullopt));
  quorum_after(h, from_millis(2));
  TimePoint quorum = h.now;
  h.fire();  // the grace's end: p3 newly suspected, round 2 in this call
  EXPECT_EQ(h.now, quorum + from_millis(50));
  EXPECT_TRUE(h.driver.core().is_suspected(ProcessId{3}));
  EXPECT_EQ(h.driver.core().query_seq(), 2u);
  EXPECT_EQ(h.targets(), (std::vector<std::uint32_t>{1, 2, 3}));

  h.now += from_millis(2);
  h.answer(1);
  ASSERT_TRUE(h.answer(2));  // p3 silent again, but already suspected
  quorum = h.now;
  h.fire();  // the grace's end: nothing new, so nothing sent
  EXPECT_EQ(h.now, quorum + from_millis(50));
  EXPECT_EQ(h.driver.core().rounds_completed(), 2u);
  EXPECT_TRUE(h.sent.empty());
  EXPECT_EQ(h.driver.core().query_seq(), 2u);
  h.fire();  // the pause's end: round 3
  EXPECT_EQ(h.now, quorum + from_millis(100));
  EXPECT_EQ(h.driver.core().query_seq(), 3u);
  EXPECT_EQ(h.targets(), (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(RoundDriver, SlowQuorumStretchesTheGraceToItsOwnSpan) {
  // R = 70 ms lies between P/2 and P: stragglers get as long as the
  // winners took.
  Harness h(4, 1, timing(std::nullopt));
  quorum_after(h, from_millis(70));
  const TimePoint quorum = h.now;
  EXPECT_EQ(*h.driver.deadline(), quorum + from_millis(70));
  h.now = quorum + from_millis(60);
  EXPECT_FALSE(h.answer(3));  // past P/2, inside R
  h.fire();
  EXPECT_EQ(h.now, quorum + from_millis(70));
  EXPECT_EQ(h.driver.core().rounds_completed(), 1u);
  EXPECT_FALSE(h.driver.core().is_suspected(ProcessId{3}));
  EXPECT_EQ(*h.driver.deadline(), quorum + from_millis(100));

  // R = 150 ms exceeds P: the grace is the whole pause, and the finish and
  // the next issue share one deadline.
  h.fire();
  const TimePoint issued = h.now;
  h.now = issued + from_millis(150);
  h.answer(1);
  ASSERT_TRUE(h.answer(2));
  EXPECT_EQ(*h.driver.deadline(), h.now + from_millis(100));
  h.fire();
  EXPECT_EQ(h.driver.core().rounds_completed(), 2u);
  EXPECT_EQ(h.driver.core().query_seq(), 3u);
}

TEST(RoundDriver, IssuesStayAtLeastTheQuorumSpanPlusHalfAPauseApart) {
  // The tag-free core clears a suspicion at the peer's next response, so
  // peers that fall silent now and then keep raising fresh suspicions and
  // with them same-call issues. Random response delays (some past the
  // pause), a quarter of the peers silent per round until a resend wave,
  // and jittered pauses.
  SimpleDetectorConfig detector;
  detector.self = ProcessId{0};
  detector.n = 6;
  detector.f = 2;
  RoundDriverConfig config = timing(from_millis(500));
  config.pacing_jitter = 0.2;
  config.jitter_seed = 3;
  RoundDriver<SimpleDetectorCore> driver(detector, config);
  const std::vector<ProcessId> peers{ProcessId{1}, ProcessId{2}, ProcessId{3},
                                     ProcessId{4}, ProcessId{5}};
  Xoshiro256 rng(11);
  // This round's responses not yet delivered: (arrival, peer, seq).
  std::vector<std::tuple<TimePoint, std::uint32_t, QuerySeq>> pending;
  TimePoint issued = kTimeZero;
  Duration rtt{0};
  int same_call_issues = 0;
  for (int step = 0; step < 20000 && driver.core().query_seq() < 300;
       ++step) {
    std::sort(pending.begin(), pending.end());
    const TimePoint due = *driver.deadline();
    if (!pending.empty() && std::get<0>(pending.front()) < due) {
      const auto [at, from, seq] = pending.front();
      pending.erase(pending.begin());
      if (driver.handle_response(at, ProcessId{from},
                                 ResponseMessage{seq, 0})) {
        rtt = at - issued;
      }
      continue;
    }
    const QuerySeq before = driver.core().query_seq();
    driver.on_deadline(due, PeerRange(peers), [](Outgoing&&) {});
    if (driver.core().query_seq() == before) {
      if (!driver.core().query_terminated()) {  // a resend wave: all answer
        for (const ProcessId p : peers) {
          pending.emplace_back(due + from_millis(rng.uniform(0.1, 150.0)),
                               p.value, before);
        }
      }
      continue;
    }
    if (before > 0) {
      // The pause is at least 80 ms: the issue comes no sooner than
      // R + 40 ms, and before R + 80 ms only when it came with a finish.
      const Duration gap = due - issued;
      EXPECT_GE(gap, rtt + from_millis(40)) << "round " << before;
      if (gap < rtt + from_millis(80)) ++same_call_issues;
    }
    issued = due;
    pending.clear();
    for (const ProcessId p : peers) {
      if (rng.next_below(4) == 0) continue;  // silent this round
      pending.emplace_back(issued + from_millis(rng.uniform(0.1, 150.0)),
                           p.value, driver.core().query_seq());
    }
  }
  EXPECT_EQ(driver.core().query_seq(), 300u);
  EXPECT_GT(same_call_issues, 0);
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
