// Unit tests for DetectorCore: each test drives the sans-I/O state machine
// by hand through the exact line-level behaviours of the paper's algorithm.
#include "core/detector_core.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/flight_recorder.h"

namespace mmrfd::core {
namespace {

DetectorConfig cfg(std::uint32_t self, std::uint32_t n, std::uint32_t f) {
  DetectorConfig c;
  c.self = ProcessId{self};
  c.n = n;
  c.f = f;
  return c;
}

TEST(DetectorCore, InitialState) {
  DetectorCore d(cfg(0, 5, 1));
  EXPECT_EQ(d.counter(), 0u);
  EXPECT_TRUE(d.suspected().empty());
  EXPECT_TRUE(d.full_query().mistakes().empty());
  EXPECT_EQ(d.known().size(), 4u);  // Pi \ {self}
  EXPECT_FALSE(d.query_in_progress());
}

TEST(DetectorCore, QuorumIsNMinusF) {
  EXPECT_EQ(cfg(0, 10, 3).quorum(), 7u);
  EXPECT_EQ(cfg(0, 4, 1).quorum(), 3u);
  // f < n keeps n - f >= 1 without any lower clamp.
  EXPECT_EQ(cfg(0, 1, 0).quorum(), 1u);
  EXPECT_EQ(cfg(0, 5, 4).quorum(), 1u);
}

TEST(DetectorCore, ConstructorRejectsMisconfiguration) {
  // f >= n used to underflow n - f in quorum() (masked by a zero-clamp);
  // now the constructor rejects it in every build type.
  EXPECT_THROW(DetectorCore{cfg(0, 5, 5)}, std::invalid_argument);
  EXPECT_THROW(DetectorCore{cfg(0, 5, 7)}, std::invalid_argument);
  EXPECT_THROW(DetectorCore{cfg(0, 0, 0)}, std::invalid_argument);
  EXPECT_THROW(DetectorCore{cfg(5, 5, 1)}, std::invalid_argument);  // self >= n
}

TEST(DetectorCore, TiedTagMistakeRemergeIsNotAnEvent) {
  struct CountingObserver final : SuspicionObserver {
    int mistakes = 0;
    void on_mistake(ProcessId, Tag) override { ++mistakes; }
  } obs;
  DetectorCore d(cfg(0, 4, 1));
  d.set_observer(&obs);
  QueryMessage in;
  in.seq = 1;
  in.push_mistake({ProcessId{2}, 5});
  (void)d.on_query(ProcessId{1}, in);
  EXPECT_EQ(obs.mistakes, 1);
  // The same entry arriving from other peers changes no state and must not
  // fire the observer again (at scale these no-op re-merges flooded the
  // event log with hundreds of millions of entries).
  (void)d.on_query(ProcessId{3}, in);
  (void)d.on_query(ProcessId{1}, in);
  EXPECT_EQ(obs.mistakes, 1);
  // A strictly newer mistake is a transition again.
  in.push_mistake({ProcessId{2}, 6});
  (void)d.on_query(ProcessId{1}, in);
  EXPECT_EQ(obs.mistakes, 2);
}

TEST(DetectorCore, QueryFromIdOutsidePiIsNeverSuspected) {
  // Only a forged live datagram can carry a sender id outside Pi. The core
  // answers it, but its suspicion candidates stay Pi \ {self}: the id is
  // never suspected, so no later query spreads it.
  DetectorCore d(cfg(0, 4, 1));
  QueryMessage in;
  in.seq = 1;
  (void)d.on_query(ProcessId{99}, in);
  EXPECT_EQ(d.known().size(), 3u);
  for (int round = 0; round < 3; ++round) {
    const auto q = d.start_query();
    for (std::uint32_t p = 1; p < 4; ++p) {
      (void)d.on_response(ProcessId{p}, ResponseMessage{q.seq});
    }
    EXPECT_FALSE(d.finish_round());
    EXPECT_TRUE(d.suspected().empty());
    EXPECT_TRUE(d.full_query().entries.empty());
  }
}

TEST(DetectorCore, QueryEntriesOutsidePiAreNotMerged) {
  // A corrupted datagram can name ids outside Pi in its entries. Merged,
  // such an id would be a suspicion no process can ever defend, spread by
  // every later full query.
  DetectorCore d(cfg(0, 4, 1));
  QueryMessage in;
  in.seq = 1;
  in.push_suspected({ProcessId{2}, 5});
  in.push_suspected({ProcessId{99}, 5});
  in.push_mistake({ProcessId{3}, 4});
  in.push_mistake({ProcessId{77}, 4});
  (void)d.on_query(ProcessId{1}, in);
  EXPECT_EQ(d.suspected(), std::vector<ProcessId>{ProcessId{2}});
  const QueryMessage listed = d.full_query();
  ASSERT_EQ(listed.mistakes().size(), 1u);
  EXPECT_EQ(listed.mistakes()[0].id, ProcessId{3});
  EXPECT_FALSE(d.is_suspected(ProcessId{99}));
  EXPECT_EQ(d.full_query().entries.size(), 2u);
}

TEST(DetectorCore, SingletonSystemIsValidAndTerminatesInstantly) {
  DetectorCore d(cfg(0, 1, 0));
  EXPECT_TRUE(d.known().empty());
  (void)d.start_query();
  EXPECT_TRUE(d.query_terminated());  // quorum of 1 = the self-response
  d.finish_round();
  EXPECT_TRUE(d.suspected().empty());
}

TEST(DetectorCore, QuorumClampedToN) {
  auto c = cfg(0, 4, 1);
  c.extra_quorum = 10;
  EXPECT_EQ(c.quorum(), 4u);
}

TEST(DetectorCore, StartQueryCarriesCurrentSets) {
  DetectorCore d(cfg(0, 4, 1));
  // Seed some state through a received query.
  QueryMessage in;
  in.seq = 1;
  in.push_suspected({ProcessId{2}, 5});
  in.push_mistake({ProcessId{3}, 4});
  (void)d.on_query(ProcessId{1}, in);
  const QueryMessage out = d.start_query();
  EXPECT_EQ(out.seq, 1u);
  ASSERT_EQ(out.suspected().size(), 1u);
  EXPECT_EQ(out.suspected()[0], (TaggedEntry{ProcessId{2}, 5}));
  ASSERT_EQ(out.mistakes().size(), 1u);
  EXPECT_EQ(out.mistakes()[0], (TaggedEntry{ProcessId{3}, 4}));
}

TEST(DetectorCore, SelfResponseCountsTowardQuorum) {
  // n=4, f=1 -> quorum 3: self + 2 remote responses terminate the query.
  DetectorCore d(cfg(0, 4, 1));
  const auto q = d.start_query();
  EXPECT_FALSE(d.query_terminated());
  EXPECT_FALSE(d.on_response(ProcessId{1}, ResponseMessage{q.seq}));
  EXPECT_TRUE(d.on_response(ProcessId{2}, ResponseMessage{q.seq}));
  EXPECT_TRUE(d.query_terminated());
}

TEST(DetectorCore, TerminationReportedExactlyOnce) {
  DetectorCore d(cfg(0, 4, 1));
  const auto q = d.start_query();
  (void)d.on_response(ProcessId{1}, ResponseMessage{q.seq});
  EXPECT_TRUE(d.on_response(ProcessId{2}, ResponseMessage{q.seq}));
  EXPECT_FALSE(d.on_response(ProcessId{3}, ResponseMessage{q.seq}));
}

TEST(DetectorCore, DuplicateResponsesIgnored) {
  DetectorCore d(cfg(0, 4, 1));
  const auto q = d.start_query();
  EXPECT_FALSE(d.on_response(ProcessId{1}, ResponseMessage{q.seq}));
  EXPECT_FALSE(d.on_response(ProcessId{1}, ResponseMessage{q.seq}));
  EXPECT_EQ(d.rec_from().size(), 2u);  // self + p1
}

TEST(DetectorCore, StaleResponsesIgnored) {
  DetectorCore d(cfg(0, 4, 1));
  const auto q1 = d.start_query();
  (void)d.on_response(ProcessId{1}, ResponseMessage{q1.seq});
  (void)d.on_response(ProcessId{2}, ResponseMessage{q1.seq});
  d.finish_round();
  const auto q2 = d.start_query();
  EXPECT_NE(q1.seq, q2.seq);
  EXPECT_FALSE(d.on_response(ProcessId{3}, ResponseMessage{q1.seq}));
  EXPECT_EQ(d.rec_from().size(), 1u);  // self only
}

TEST(DetectorCore, FinishRoundSuspectsNonResponders) {
  DetectorCore d(cfg(0, 5, 2));  // quorum 3
  const auto q = d.start_query();
  (void)d.on_response(ProcessId{1}, ResponseMessage{q.seq});
  (void)d.on_response(ProcessId{2}, ResponseMessage{q.seq});
  d.finish_round();
  const auto suspects = d.suspected();
  ASSERT_EQ(suspects.size(), 2u);
  EXPECT_EQ(suspects[0], ProcessId{3});
  EXPECT_EQ(suspects[1], ProcessId{4});
  // Tagged with the pre-increment counter value 0; counter then advanced.
  EXPECT_EQ(d.suspicion_tag(ProcessId{3}), 0u);
  EXPECT_EQ(d.counter(), 1u);
}

TEST(DetectorCore, LateResponseJoinsRecFromBeforeFinish) {
  DetectorCore d(cfg(0, 5, 2));
  const auto q = d.start_query();
  (void)d.on_response(ProcessId{1}, ResponseMessage{q.seq});
  (void)d.on_response(ProcessId{2}, ResponseMessage{q.seq});  // terminates
  // p3's late response arrives during the pacing window.
  (void)d.on_response(ProcessId{3}, ResponseMessage{q.seq});
  d.finish_round();
  const auto suspects = d.suspected();
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(suspects[0], ProcessId{4});
}

TEST(DetectorCore, WinningSetIsFirstQuorumOnly) {
  DetectorCore d(cfg(0, 5, 2));
  const auto q = d.start_query();
  (void)d.on_response(ProcessId{3}, ResponseMessage{q.seq});
  (void)d.on_response(ProcessId{1}, ResponseMessage{q.seq});
  (void)d.on_response(ProcessId{2}, ResponseMessage{q.seq});  // late
  // The first quorum() responders, in arrival order: p2 came too late.
  const auto w = d.winning();
  EXPECT_EQ(std::vector<ProcessId>(w.begin(), w.end()),
            (std::vector<ProcessId>{ProcessId{0}, ProcessId{3}, ProcessId{1}}));
  EXPECT_EQ(d.rec_from().size(), 4u);
}

TEST(DetectorCore, AlreadySuspectedNotReTagged) {
  DetectorCore d(cfg(0, 4, 1));
  auto round = [&] {
    const auto q = d.start_query();
    (void)d.on_response(ProcessId{1}, ResponseMessage{q.seq});
    (void)d.on_response(ProcessId{2}, ResponseMessage{q.seq});
    d.finish_round();
  };
  round();  // p3 suspected with tag 0
  round();  // p3 still absent, but already suspected: tag unchanged
  EXPECT_EQ(d.suspicion_tag(ProcessId{3}), 0u);
  EXPECT_EQ(d.counter(), 2u);
}

// --- T2 merge semantics ------------------------------------------------------

TEST(DetectorCore, MergeAdoptsUnknownSuspicion) {
  DetectorCore d(cfg(0, 5, 1));
  QueryMessage q;
  q.seq = 1;
  q.push_suspected({ProcessId{2}, 7});
  const auto r = d.on_query(ProcessId{1}, q);
  EXPECT_EQ(r.seq, 1u);
  EXPECT_TRUE(d.is_suspected(ProcessId{2}));
  EXPECT_EQ(d.suspicion_tag(ProcessId{2}), 7u);
}

TEST(DetectorCore, MergeIgnoresOlderSuspicion) {
  DetectorCore d(cfg(0, 5, 1));
  QueryMessage newer;
  newer.seq = 1;
  newer.push_suspected({ProcessId{2}, 7});
  (void)d.on_query(ProcessId{1}, newer);
  QueryMessage older;
  older.seq = 2;
  older.push_suspected({ProcessId{2}, 3});
  (void)d.on_query(ProcessId{3}, older);
  EXPECT_EQ(d.suspicion_tag(ProcessId{2}), 7u);
}

TEST(DetectorCore, MergeIgnoresEqualTagSuspicion) {
  // Line 22 uses strict <: an equal-tag suspicion is not "more recent".
  DetectorCore d(cfg(0, 5, 1));
  QueryMessage q;
  q.seq = 1;
  q.push_suspected({ProcessId{2}, 7});
  (void)d.on_query(ProcessId{1}, q);
  QueryMessage q2;
  q2.seq = 1;
  q2.push_mistake({ProcessId{2}, 7});
  (void)d.on_query(ProcessId{3}, q2);  // mistake with equal tag WINS (<=)
  EXPECT_FALSE(d.is_suspected(ProcessId{2}));
  QueryMessage q3;
  q3.seq = 2;
  q3.push_suspected({ProcessId{2}, 7});
  (void)d.on_query(ProcessId{1}, q3);  // suspicion with equal tag loses
  EXPECT_FALSE(d.is_suspected(ProcessId{2}));
  EXPECT_TRUE(d.mistake_tag(ProcessId{2}).has_value());
}

TEST(DetectorCore, MistakeTieBreakFavorsMistake) {
  // The <= in line 33 vs < in line 22: with identical tags, the mistake
  // overrides the suspicion but not vice versa.
  DetectorCore d(cfg(0, 5, 1));
  QueryMessage susp;
  susp.seq = 1;
  susp.push_suspected({ProcessId{3}, 4});
  (void)d.on_query(ProcessId{1}, susp);
  EXPECT_TRUE(d.is_suspected(ProcessId{3}));
  QueryMessage mist;
  mist.seq = 1;
  mist.push_mistake({ProcessId{3}, 4});
  (void)d.on_query(ProcessId{2}, mist);
  EXPECT_FALSE(d.is_suspected(ProcessId{3}));
  EXPECT_EQ(d.mistake_tag(ProcessId{3}), 4u);
}

TEST(DetectorCore, NewerSuspicionOverridesMistake) {
  DetectorCore d(cfg(0, 5, 1));
  QueryMessage mist;
  mist.seq = 1;
  mist.push_mistake({ProcessId{3}, 4});
  (void)d.on_query(ProcessId{1}, mist);
  QueryMessage susp;
  susp.seq = 1;
  susp.push_suspected({ProcessId{3}, 5});
  (void)d.on_query(ProcessId{2}, susp);
  EXPECT_TRUE(d.is_suspected(ProcessId{3}));
  EXPECT_FALSE(d.mistake_tag(ProcessId{3}).has_value());
}

TEST(DetectorCore, SelfDefenceGeneratesDominatingMistake) {
  // Lines 23-25: receiving a suspicion about *myself* produces a mistake
  // with tag strictly above the suspicion's.
  DetectorCore d(cfg(0, 5, 1));
  QueryMessage q;
  q.seq = 1;
  q.push_suspected({ProcessId{0}, 9});
  (void)d.on_query(ProcessId{1}, q);
  EXPECT_FALSE(d.is_suspected(ProcessId{0}));
  ASSERT_TRUE(d.mistake_tag(ProcessId{0}).has_value());
  EXPECT_EQ(d.mistake_tag(ProcessId{0}), 10u);
  EXPECT_GE(d.counter(), 10u);
  // The mistake rides the next query.
  const auto out = d.start_query();
  ASSERT_EQ(out.mistakes().size(), 1u);
  EXPECT_EQ(out.mistakes()[0], (TaggedEntry{ProcessId{0}, 10}));
}

TEST(DetectorCore, SelfDefenceIgnoredWhenOwnMistakeNewer) {
  DetectorCore d(cfg(0, 5, 1));
  QueryMessage q;
  q.seq = 1;
  q.push_suspected({ProcessId{0}, 9});
  (void)d.on_query(ProcessId{1}, q);  // mistake tag 10
  QueryMessage stale;
  stale.seq = 1;
  stale.push_suspected({ProcessId{0}, 6});
  (void)d.on_query(ProcessId{2}, stale);
  EXPECT_EQ(d.mistake_tag(ProcessId{0}), 10u);
}

TEST(DetectorCore, FreshSuspicionDominatesLocalMistake) {
  // T1 lines 10-12: when a process with a recorded mistake stops responding,
  // the new suspicion's tag jumps above the mistake's.
  DetectorCore d(cfg(0, 4, 1));
  QueryMessage mist;
  mist.seq = 1;
  mist.push_mistake({ProcessId{3}, 41});
  (void)d.on_query(ProcessId{1}, mist);
  const auto q = d.start_query();
  (void)d.on_response(ProcessId{1}, ResponseMessage{q.seq});
  (void)d.on_response(ProcessId{2}, ResponseMessage{q.seq});
  d.finish_round();  // p3 did not respond
  EXPECT_TRUE(d.is_suspected(ProcessId{3}));
  EXPECT_EQ(d.suspicion_tag(ProcessId{3}), 42u);
  EXPECT_FALSE(d.mistake_tag(ProcessId{3}).has_value());
  EXPECT_EQ(d.counter(), 43u);
}

TEST(DetectorCore, CounterNeverDecreases) {
  DetectorCore d(cfg(0, 4, 1));
  Tag last = d.counter();
  Xoshiro256 rng(3);
  for (int i = 0; i < 200; ++i) {
    if (rng.bernoulli(0.5)) {
      QueryMessage q;
      q.seq = static_cast<QuerySeq>(i);
      if (rng.bernoulli(0.5)) {
        q.push_suspected({ProcessId{static_cast<std::uint32_t>(
                            rng.next_below(4))},
                        rng.next_below(100)});
      } else {
        q.push_mistake({ProcessId{static_cast<std::uint32_t>(
                           rng.next_below(4))},
                       rng.next_below(100)});
      }
      (void)d.on_query(ProcessId{1}, q);
    } else {
      const auto q = d.start_query();
      (void)d.on_response(ProcessId{1}, ResponseMessage{q.seq});
      (void)d.on_response(ProcessId{2}, ResponseMessage{q.seq});
      d.finish_round();
    }
    EXPECT_GE(d.counter(), last);
    last = d.counter();
  }
}

TEST(DetectorCore, SuspectedAndMistakeSetsDisjointUnderRandomMerges) {
  // Protocol invariant: a process is never simultaneously suspected and
  // excused. Fuzz the merge paths.
  DetectorCore d(cfg(0, 8, 2));
  Xoshiro256 rng(99);
  for (int i = 0; i < 3000; ++i) {
    QueryMessage q;
    q.seq = static_cast<QuerySeq>(i);
    const int n_entries = static_cast<int>(rng.next_below(4));
    for (int k = 0; k < n_entries; ++k) {
      const TaggedEntry e{
          ProcessId{static_cast<std::uint32_t>(rng.next_below(8))},
          rng.next_below(50)};
      if (rng.bernoulli(0.5)) {
        q.push_suspected(e);
      } else {
        q.push_mistake(e);
      }
    }
    const auto from =
        ProcessId{static_cast<std::uint32_t>(1 + rng.next_below(7))};
    (void)d.on_query(from, q);
    for (const auto listed = d.full_query();
         const auto& e : listed.suspected()) {
      EXPECT_FALSE(d.mistake_tag(e.id).has_value());
      EXPECT_NE(e.id, ProcessId{0});  // never suspects itself
    }
  }
}

/// A random query: up to six suspicions and mistakes, interleaved, over ids
/// [1, n + 4) (ids >= n included, id 0 never) and tags [0, 12), so
/// replacements, stale entries and tag ties all occur.
QueryMessage random_query(Xoshiro256& rng, std::uint32_t n, QuerySeq seq) {
  QueryMessage q;
  q.seq = seq;
  const auto count = rng.next_below(7);
  for (std::uint64_t k = 0; k < count; ++k) {
    const TaggedEntry e{
        ProcessId{static_cast<std::uint32_t>(1 + rng.next_below(n + 3))},
        rng.next_below(12)};
    if (rng.bernoulli(0.5)) {
      q.push_suspected(e);
    } else {
      q.push_mistake(e);
    }
  }
  return q;
}

/// full_query() is the table's one listing: suspected_count suspicions,
/// then the mistakes, each strictly ascending by id and disjoint, in
/// agreement with is_suspected(), the per-id tags and suspected(). Ids >= n
/// hold no entry.
void expect_listing_agrees(const DetectorCore& d) {
  std::vector<TaggedEntry> suspicions;
  std::vector<TaggedEntry> mistakes;
  std::vector<ProcessId> suspects;
  for (std::uint32_t i = 0; i < d.config().n + 4; ++i) {
    const ProcessId id{i};
    const auto suspicion = d.suspicion_tag(id);
    const auto mistake = d.mistake_tag(id);
    ASSERT_FALSE(suspicion && mistake) << "p" << i << " is in both sets";
    ASSERT_EQ(d.is_suspected(id), suspicion.has_value()) << "p" << i;
    if (suspicion) {
      suspicions.push_back({id, *suspicion});
      suspects.push_back(id);
    }
    if (mistake) mistakes.push_back({id, *mistake});
  }
  const QueryMessage q = d.full_query();
  ASSERT_EQ(q.suspected_count, suspicions.size());
  EXPECT_TRUE(std::ranges::equal(q.suspected(), suspicions));
  EXPECT_TRUE(std::ranges::equal(q.mistakes(), mistakes));
  EXPECT_EQ(d.suspected(), suspects);
}

TEST(DetectorCore, MergesMatchAReferenceModelOfT2) {
  // T2 against a std::map model: the newest tag wins, and on a tie the
  // mistake wins. Ids >= n are never merged.
  Xoshiro256 rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<std::uint32_t>(2 + rng.next_below(15));
    DetectorCore d(cfg(0, n, (n - 1) / 2));
    std::map<std::uint32_t, std::pair<Tag, bool>> model;  // tag, mistake?
    const auto merge = [&](const TaggedEntry& e, bool mistake) {
      if (e.id.value >= n) return;
      const auto it = model.find(e.id.value);
      if (it == model.end() || it->second.first < e.tag ||
          (mistake && it->second.first == e.tag)) {
        model[e.id.value] = {e.tag, mistake};
      }
    };
    for (int step = 0; step < 100; ++step) {
      const QueryMessage q =
          random_query(rng, n, static_cast<QuerySeq>(step + 1));
      (void)d.on_query(
          ProcessId{static_cast<std::uint32_t>(1 + rng.next_below(n - 1))},
          q);
      for (const auto& e : q.suspected()) merge(e, false);
      for (const auto& e : q.mistakes()) merge(e, true);
      for (std::uint32_t i = 0; i < n + 4; ++i) {
        std::optional<Tag> suspicion;
        std::optional<Tag> mistake;
        if (const auto it = model.find(i); it != model.end()) {
          (it->second.second ? mistake : suspicion) = it->second.first;
        }
        ASSERT_EQ(d.suspicion_tag(ProcessId{i}), suspicion)
            << "trial " << trial << " step " << step << " p" << i;
        ASSERT_EQ(d.mistake_tag(ProcessId{i}), mistake)
            << "trial " << trial << " step " << step << " p" << i;
      }
      ASSERT_NO_FATAL_FAILURE(expect_listing_agrees(d))
          << "trial " << trial << " step " << step;
    }
  }
}

TEST(DetectorCore, FullQueryListsTheTableThroughRoundsAndCorruption) {
  // Rounds with random responders, merges (self-defence included) and one
  // transient corruption; the listing must agree with the table after
  // every step.
  Xoshiro256 rng(7919);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<std::uint32_t>(2 + rng.next_below(15));
    const auto self = static_cast<std::uint32_t>(rng.next_below(n));
    DetectorCore d(cfg(self, n, static_cast<std::uint32_t>(rng.next_below(n))));
    const auto corrupt_at = rng.next_below(60);
    for (std::uint64_t step = 0; step < 60; ++step) {
      if (step == corrupt_at) {
        d.inject_transient_corruption(rng.next());
      } else if (rng.bernoulli(0.5)) {
        const auto from = (self + 1 + rng.next_below(n - 1)) % n;
        (void)d.on_query(ProcessId{static_cast<std::uint32_t>(from)},
                         random_query(rng, n, step + 1));
      } else {
        d.begin_query();
        for (ProcessId p : d.known()) {
          if (rng.bernoulli(0.6)) {
            (void)d.on_response(p, ResponseMessage{d.query_seq()});
          }
        }
        while (!d.query_terminated()) {
          const ProcessId p{static_cast<std::uint32_t>(rng.next_below(n))};
          (void)d.on_response(p, ResponseMessage{d.query_seq()});
        }
        d.finish_round();
      }
      ASSERT_NO_FATAL_FAILURE(expect_listing_agrees(d))
          << "trial " << trial << " step " << step;
    }
  }
}

TEST(DetectorCore, ObserverSeesTransitions) {
  struct Recorder : SuspicionObserver {
    std::vector<std::pair<char, std::uint32_t>> events;
    void on_suspected(ProcessId s, Tag) override {
      events.emplace_back('S', s.value);
    }
    void on_cleared(ProcessId s, Tag) override {
      events.emplace_back('C', s.value);
    }
    void on_mistake(ProcessId s, Tag) override {
      events.emplace_back('M', s.value);
    }
  } rec;
  DetectorCore d(cfg(0, 4, 1));
  d.set_observer(&rec);
  QueryMessage susp;
  susp.seq = 1;
  susp.push_suspected({ProcessId{2}, 3});
  (void)d.on_query(ProcessId{1}, susp);
  QueryMessage mist;
  mist.seq = 1;
  mist.push_mistake({ProcessId{2}, 5});
  (void)d.on_query(ProcessId{1}, mist);
  ASSERT_EQ(rec.events.size(), 3u);
  EXPECT_EQ(rec.events[0], std::make_pair('S', 2u));
  EXPECT_EQ(rec.events[1], std::make_pair('C', 2u));
  EXPECT_EQ(rec.events[2], std::make_pair('M', 2u));
}

TEST(DetectorCore, TwoCoreConversationConverges) {
  // Manual two-node exchange: p1 suspected p0 (tag 9); after one query from
  // p0 and one from p1, both agree p0 is alive (mistake tag 10).
  DetectorCore d0(cfg(0, 2, 1));
  DetectorCore d1(cfg(1, 2, 1));
  // p1 believes p0 is suspect.
  QueryMessage seed;
  seed.seq = 99;
  seed.push_suspected({ProcessId{0}, 9});
  (void)d1.on_query(ProcessId{0}, seed);  // from a hypothetical third party
  // p1 queries p0.
  const auto q1 = d1.start_query();
  const auto r0 = d0.on_query(ProcessId{1}, q1);  // p0 defends itself
  (void)d1.on_response(ProcessId{0}, ResponseMessage{r0.seq});
  EXPECT_TRUE(d0.mistake_tag(ProcessId{0}).has_value());
  // p0's next query carries the mistake; p1 adopts it.
  const auto q0 = d0.start_query();
  (void)d1.on_query(ProcessId{0}, q0);
  EXPECT_FALSE(d1.is_suspected(ProcessId{0}));
  EXPECT_EQ(d1.mistake_tag(ProcessId{0}), 10u);
}

/// `rounds` rounds of p_a and p_b, two of three cores (the third is
/// silent): each in turn issues a full query, the other merges it and
/// answers, and the issuer finishes its round on that quorum.
void exchange(DetectorCore& a, DetectorCore& b, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    for (const auto& [issuer, peer] : {std::pair{&a, &b}, std::pair{&b, &a}}) {
      const QueryMessage q = issuer->start_query();
      const ResponseMessage r = peer->on_query(issuer->config().self, q);
      ASSERT_TRUE(issuer->on_response(peer->config().self, r));
      issuer->finish_round();
    }
  }
}

TEST(DetectorCore, TagsNoDefenceCanDominateAreNotMerged) {
  // Only a forged or corrupted datagram carries a tag of 2^63 or more.
  // Merged, p2's suspicion of the live p1 tagged 2^64 - 1 outlived every
  // defence: p1's tag + 1 wrapped to 0, so p0 suspected p1 for good. A
  // mistake tagged 2^64 - 1 wrapped finish_round's bump the same way, so
  // p0's next suspicion of p2 could not dominate it.
  DetectorCore d0(cfg(0, 3, 1));
  DetectorCore d1(cfg(1, 3, 1));
  QueryMessage forged;
  forged.seq = 1;
  forged.push_suspected({ProcessId{1}, ~Tag{0}});
  forged.push_mistake({ProcessId{2}, ~Tag{0}});
  (void)d0.on_query(ProcessId{2}, forged);
  EXPECT_FALSE(d0.is_suspected(ProcessId{1}));
  EXPECT_FALSE(d0.mistake_tag(ProcessId{2}).has_value());
  exchange(d0, d1, 5);
  EXPECT_FALSE(d0.is_suspected(ProcessId{1}));
  EXPECT_FALSE(d1.mistake_tag(ProcessId{1}).has_value());  // never defended

  QueryMessage at_limit;
  at_limit.seq = 2;
  at_limit.push_suspected({ProcessId{1}, DetectorCore::kTagLimit});
  (void)d0.on_query(ProcessId{2}, at_limit);
  EXPECT_FALSE(d0.is_suspected(ProcessId{1}));
}

TEST(DetectorCore, TheLargestMergedTagIsStillDefended) {
  // 2^63 - 1 is merged. p1's counter saturates there instead of leaving
  // the merged range, so its defence ties the suspicion, and p0 lets the
  // tied mistake win.
  constexpr Tag kTop = DetectorCore::kTagLimit - 1;
  DetectorCore d0(cfg(0, 3, 1));
  DetectorCore d1(cfg(1, 3, 1));
  QueryMessage forged;
  forged.seq = 1;
  forged.push_suspected({ProcessId{1}, kTop});
  (void)d0.on_query(ProcessId{2}, forged);
  EXPECT_EQ(d0.suspicion_tag(ProcessId{1}), kTop);
  exchange(d0, d1, 1);
  EXPECT_FALSE(d0.is_suspected(ProcessId{1}));
  EXPECT_EQ(d0.mistake_tag(ProcessId{1}), kTop);
  EXPECT_EQ(d1.counter(), kTop);
  // Every later tag p1 issues stays mergeable: p1's suspicion of the
  // silent p2 reaches p0, and p1 is not suspected again.
  exchange(d0, d1, 4);
  EXPECT_FALSE(d0.is_suspected(ProcessId{1}));
  EXPECT_EQ(d0.suspicion_tag(ProcessId{2}), kTop);
  EXPECT_EQ(d1.counter(), kTop);
}

TEST(DetectorCore, RoundsCompletedCounts) {
  DetectorCore d(cfg(0, 2, 1));  // quorum 1: self-terminating queries
  EXPECT_EQ(d.rounds_completed(), 0u);
  for (int i = 0; i < 3; ++i) {
    (void)d.start_query();
    ASSERT_TRUE(d.query_terminated());
    d.finish_round();
  }
  EXPECT_EQ(d.rounds_completed(), 3u);
}

// --- delta encoding ----------------------------------------------------------

DetectorConfig delta_cfg(std::uint32_t self, std::uint32_t n,
                         std::uint32_t f) {
  auto c = cfg(self, n, f);
  c.delta_queries = true;
  return c;
}

/// One terminated round at `d` where `responders` answer (echoing epochs as
/// the wire would).
void run_round(DetectorCore& d, std::initializer_list<std::uint32_t> responders) {
  d.begin_query();
  for (const std::uint32_t r : responders) {
    ResponseMessage resp;
    resp.seq = d.query_seq();
    resp.ack_epoch = d.query_for(ProcessId{r}).epoch;
    (void)d.on_response(ProcessId{r}, resp);
  }
  ASSERT_TRUE(d.query_terminated());
  d.finish_round();
}

TEST(DetectorCore, FirstQueryToEveryPeerIsFull) {
  DetectorCore d(delta_cfg(0, 4, 1));
  d.begin_query();
  for (std::uint32_t i = 1; i < 4; ++i) {
    EXPECT_TRUE(d.full_query_needed(ProcessId{i})) << i;
    EXPECT_FALSE(d.query_for(ProcessId{i}).is_delta()) << i;
  }
}

TEST(DetectorCore, AckAdvancesWatermarkAndShrinksNextQuery) {
  DetectorCore d(delta_cfg(0, 5, 2));
  // Round 1: p3/p4 don't respond -> suspected. p1's ack covers the epoch of
  // the (full) query it received... which was built BEFORE the suspicions.
  run_round(d, {1, 2});
  EXPECT_EQ(d.suspected().size(), 2u);
  // Round 2: p1 acked epoch 0 (pre-suspicion state), so its query is still
  // full. Its ack now covers the suspicions.
  run_round(d, {1, 2});
  // Round 3: nothing changed since p1's last ack -> empty delta.
  d.begin_query();
  ASSERT_FALSE(d.full_query_needed(ProcessId{1}));
  const auto q = d.query_for(ProcessId{1});
  EXPECT_TRUE(q.is_delta());
  EXPECT_TRUE(q.entries.empty());
  EXPECT_EQ(q.base_epoch, d.state_epoch());
  // The full reference for the same round still carries both entries.
  EXPECT_EQ(d.full_query().entries.size(), 2u);
}

TEST(DetectorCore, DeltaCarriesOnlyChangesSinceAck) {
  DetectorCore d(delta_cfg(0, 6, 2));
  run_round(d, {1, 2, 3, 4});  // p5 suspected
  run_round(d, {1, 2, 3, 4});  // p1 acks the p5 suspicion
  // New information arrives: p2 is excused elsewhere... a mistake about p4.
  QueryMessage gossip;
  gossip.seq = 9;
  gossip.push_mistake({ProcessId{4}, 50});
  (void)d.on_query(ProcessId{2}, gossip);
  d.begin_query();
  const auto q = d.query_for(ProcessId{1});
  ASSERT_TRUE(q.is_delta());
  // Only the mistake changed since p1's ack; the stable p5 suspicion is
  // interned in base_epoch.
  ASSERT_EQ(q.entries.size(), 1u);
  EXPECT_TRUE(q.suspected().empty());
  EXPECT_EQ(q.mistakes()[0], (TaggedEntry{ProcessId{4}, 50}));
}

TEST(DetectorCore, DeltaMergeMatchesFullMerge) {
  // The same conversation through a delta-encoded and a full-encoded
  // sender produces identical receiver state (the harness does this at
  // cluster scale; this is the two-core minimal case).
  DetectorCore sender_delta(delta_cfg(0, 4, 1));
  auto full_cfg = cfg(0, 4, 1);
  full_cfg.delta_queries = false;
  DetectorCore sender_full(full_cfg);
  DetectorCore rx_delta(delta_cfg(1, 4, 1));
  DetectorCore rx_full(delta_cfg(1, 4, 1));
  for (int round = 0; round < 4; ++round) {
    for (DetectorCore* s : {&sender_delta, &sender_full}) {
      s->begin_query();
      DetectorCore& rx = (s == &sender_delta) ? rx_delta : rx_full;
      const auto q = s->query_for(ProcessId{1});
      const auto r = rx.on_query(ProcessId{0}, q);
      (void)s->on_response(ProcessId{1}, r);
      (void)s->on_response(ProcessId{2}, ResponseMessage{s->query_seq()});
      s->finish_round();  // p3 never answers -> suspicion churn
    }
    ASSERT_TRUE(std::ranges::equal(rx_delta.full_query().suspected(),
                                   rx_full.full_query().suspected()))
        << round;
    ASSERT_TRUE(std::ranges::equal(rx_delta.full_query().mistakes(),
                                   rx_full.full_query().mistakes()))
        << round;
  }
}

TEST(DetectorCore, EpochMissTriggersNeedFullAndResync) {
  DetectorCore d(delta_cfg(0, 4, 1));
  run_round(d, {1, 2});  // p3 suspected
  run_round(d, {1, 2});  // p1's ack covers it
  d.begin_query();
  ASSERT_FALSE(d.full_query_needed(ProcessId{1}));
  const auto delta = d.query_for(ProcessId{1});
  ASSERT_TRUE(delta.is_delta());
  // A RESTARTED p1 (fresh core = lost state) receives the delta: it cannot
  // claim the interned base it never saw, answers need_full, but still
  // merges the (safe) entries it did receive.
  DetectorCore fresh(delta_cfg(1, 4, 1));
  const auto r = fresh.on_query(ProcessId{0}, delta);
  EXPECT_TRUE(r.need_full);
  EXPECT_EQ(fresh.seen_epoch(ProcessId{0}), 0u);  // not advanced
  // The sender drops its watermark and resyncs with a full query.
  (void)d.on_response(ProcessId{1}, r);
  EXPECT_EQ(d.acked_epoch(ProcessId{1}), 0u);
  (void)d.on_response(ProcessId{2}, ResponseMessage{d.query_seq()});
  ASSERT_TRUE(d.query_terminated());
  d.finish_round();
  d.begin_query();
  EXPECT_TRUE(d.full_query_needed(ProcessId{1}));
  const auto full = d.query_for(ProcessId{1});
  EXPECT_FALSE(full.is_delta());
  const auto r2 = fresh.on_query(ProcessId{0}, full);
  EXPECT_FALSE(r2.need_full);
  EXPECT_EQ(fresh.seen_epoch(ProcessId{0}), full.epoch);
  EXPECT_TRUE(fresh.is_suspected(ProcessId{3}));  // fully resynced
}

TEST(DetectorCore, JournalOverrunFallsBackToFull) {
  auto c = delta_cfg(0, 4, 1);
  c.delta_journal_capacity = 4;  // tiny replay window
  DetectorCore d(c);
  run_round(d, {1, 2});
  run_round(d, {1, 2});
  ASSERT_FALSE(d.full_query_needed(ProcessId{1}));
  // p1 stops acking while state churns past the window (tag upgrades for
  // p3 via gossip).
  for (Tag t = 10; t < 30; ++t) {
    QueryMessage gossip;
    gossip.seq = t;
    gossip.push_suspected({ProcessId{3}, t});
    (void)d.on_query(ProcessId{2}, gossip);
  }
  d.begin_query();
  EXPECT_TRUE(d.full_query_needed(ProcessId{1}));
  EXPECT_FALSE(d.query_for(ProcessId{1}).is_delta());
}

TEST(DetectorCore, LaggingPeerGetsFullOnceDeltaWouldCostMore) {
  // The cost guard: a peer whose ack lags by far more records than the sets
  // hold gets the shared full encoding even while the journal still covers
  // it (crashed peers stop acking and must not drag ever-longer suffix
  // scans).
  DetectorCore d(delta_cfg(0, 4, 1));
  run_round(d, {1, 2});
  run_round(d, {1, 2});
  ASSERT_FALSE(d.full_query_needed(ProcessId{1}));
  for (Tag t = 100; t < 200; ++t) {  // 100 changes, sets hold 1 entry
    QueryMessage gossip;
    gossip.seq = t;
    gossip.push_suspected({ProcessId{3}, t});
    (void)d.on_query(ProcessId{2}, gossip);
  }
  d.begin_query();
  EXPECT_TRUE(d.full_query_needed(ProcessId{1}));
}

TEST(DetectorCore, ReferenceModeStaysEpochless) {
  auto c = cfg(0, 4, 1);
  c.delta_queries = false;
  DetectorCore d(c);
  const auto q = d.start_query();
  EXPECT_EQ(q.epoch, 0u);
  EXPECT_FALSE(q.is_delta());
  EXPECT_TRUE(d.full_query_needed(ProcessId{1}));
  // And its responses to epoch-less queries carry no ack.
  QueryMessage in;
  in.seq = 1;
  const auto r = d.on_query(ProcessId{1}, in);
  EXPECT_EQ(r.ack_epoch, 0u);
  EXPECT_FALSE(r.need_full);
}

TEST(DetectorCore, ForgedSenderIdCannotJoinQuorum) {
  DetectorCore d(delta_cfg(0, 4, 1));
  d.begin_query();
  EXPECT_FALSE(d.on_response(ProcessId{99}, ResponseMessage{d.query_seq()}));
  EXPECT_EQ(d.rec_from().size(), 1u);  // self only
}

TEST(DetectorCore, PaperFigureOneScenario) {
  // The paper's illustration (adapted to full connectivity): B suspects A
  // with counter 5, C suspects A with counter 10; when the information meets,
  // the counter-10 entry wins everywhere.
  DetectorCore b(cfg(1, 5, 1));
  DetectorCore c(cfg(2, 5, 1));
  DetectorCore dnode(cfg(3, 5, 1));
  QueryMessage fromB;
  fromB.seq = 1;
  fromB.push_suspected({ProcessId{0}, 5});
  QueryMessage fromC;
  fromC.seq = 1;
  fromC.push_suspected({ProcessId{0}, 10});
  // D hears B first, then C: upgrades 5 -> 10.
  (void)dnode.on_query(ProcessId{1}, fromB);
  EXPECT_EQ(dnode.suspicion_tag(ProcessId{0}), 5u);
  (void)dnode.on_query(ProcessId{2}, fromC);
  EXPECT_EQ(dnode.suspicion_tag(ProcessId{0}), 10u);
  // B holds the counter-5 entry, C the counter-10 entry.
  (void)b.on_query(ProcessId{4}, fromB);
  (void)c.on_query(ProcessId{4}, fromC);
  // B upgrades from C's info; C discards B's older info.
  (void)b.on_query(ProcessId{2}, fromC);
  EXPECT_EQ(b.suspicion_tag(ProcessId{0}), 10u);
  (void)c.on_query(ProcessId{1}, fromB);
  EXPECT_EQ(c.suspicion_tag(ProcessId{0}), 10u);
}

TEST(DetectorCore, GiveupSkipsDeadPeerAtProbeRate) {
  // n=4, f=1, K=3: peer 3 never responds. Once its consecutive-suspected
  // streak reaches K, it is queried only on streak % K == 0 probe rounds.
  auto c = cfg(0, 4, 1);
  c.giveup_rounds = 3;
  DetectorCore d(c);
  std::vector<bool> queried;
  for (int round = 1; round <= 10; ++round) {
    d.begin_query();
    queried.push_back(d.should_query(ProcessId{3}));
    for (const std::uint32_t r : {1u, 2u}) {
      (void)d.on_response(ProcessId{r}, ResponseMessage{d.query_seq()});
    }
    ASSERT_TRUE(d.query_terminated());
    d.finish_round();
    EXPECT_EQ(d.suspect_streak(ProcessId{3}),
              static_cast<std::uint32_t>(round));
  }
  // begin_query of round r sees streak r-1: skip when r-1 >= 3 and
  // (r-1) % 3 != 0 — i.e. rounds 5, 6, 8, 9 skip; 4, 7, 10 probe.
  const std::vector<bool> expected{true, true,  true, true,  false,
                                   false, true, false, false, true};
  EXPECT_EQ(queried, expected);
  EXPECT_EQ(d.queries_skipped(), 4u);
  // Responsive peers are always queried.
  d.begin_query();
  EXPECT_TRUE(d.should_query(ProcessId{1}));
  EXPECT_TRUE(d.should_query(ProcessId{2}));
}

TEST(DetectorCore, GiveupStreakResetsOnRepair) {
  auto c = cfg(0, 4, 1);
  c.giveup_rounds = 2;
  DetectorCore d(c);
  for (int round = 0; round < 4; ++round) run_round(d, {1, 2});
  EXPECT_EQ(d.suspect_streak(ProcessId{3}), 4u);
  // Peer 3's mistake arrives via gossip: the streak must reset and the peer
  // must be queried again immediately.
  QueryMessage repair;
  repair.seq = 1;
  repair.push_mistake({ProcessId{3}, d.counter() + 1});
  (void)d.on_query(ProcessId{1}, repair);
  run_round(d, {1, 2, 3});
  EXPECT_EQ(d.suspect_streak(ProcessId{3}), 0u);
  d.begin_query();
  EXPECT_TRUE(d.should_query(ProcessId{3}));
}

// The first core, over inject_transient_corruption seeds, whose streak
// table `shape` accepts after `setup` and the fault. Honest rounds leave at
// most n - quorum peers silent, so only a corrupted table qualifies more
// peers for the give-up skip than its budget admits.
template <typename Setup, typename Shape>
std::unique_ptr<DetectorCore> with_corrupted_streaks(const DetectorConfig& c,
                                                     Setup setup,
                                                     Shape shape) {
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    auto d = std::make_unique<DetectorCore>(c);
    setup(*d);
    d->inject_transient_corruption(seed);
    if (shape(*d)) return d;
  }
  return nullptr;
}

TEST(DetectorCore, GiveupCapNeverBlocksQuorum) {
  // n=5, f=1: quorum 4, so at most n - quorum = 1 peer may be skipped at
  // once even when two peers have qualifying streaks (equal streaks here,
  // so the tie goes to the lowest id, deterministically). A transient
  // fault that rewrites the streak table is what qualifies both.
  auto c = cfg(0, 5, 1);
  c.giveup_rounds = 2;
  const auto d = with_corrupted_streaks(
      c, [](DetectorCore&) {},
      [](const DetectorCore& d) {
        const std::uint32_t s = d.suspect_streak(ProcessId{3});
        return s >= 3 && s % 2 != 0 && d.suspect_streak(ProcessId{4}) == s;
      });
  ASSERT_NE(d, nullptr);
  EXPECT_GE(d->suspect_streak(ProcessId{3}), 3u);
  EXPECT_GE(d->suspect_streak(ProcessId{4}), 3u);
  d->begin_query();
  const int skipped = (d->should_query(ProcessId{3}) ? 0 : 1) +
                      (d->should_query(ProcessId{4}) ? 0 : 1);
  EXPECT_LE(skipped, 1);
  // The cap picks the lowest id: 3 skipped, 4 still queried.
  EXPECT_FALSE(d->should_query(ProcessId{3}));
  EXPECT_TRUE(d->should_query(ProcessId{4}));
}

TEST(DetectorCore, GiveupBudgetPrefersLongestStreaks) {
  // Regression: when more peers qualify than the cap allows, the budget
  // must go to the LONGEST streaks, not the lowest ids. A genuinely
  // crashed peer accumulates an unbounded streak; the old id-ordered scan
  // let falsely suspected low-id live peers eat the whole budget — every
  // query still went to the dead peer (wasting the policy), and on the
  // live path skipping a responsive peer the round needed for quorum froze
  // the round permanently (observed at n=64 under 5% loss).
  auto c = cfg(0, 5, 1);
  c.giveup_rounds = 2;
  // Peer 4 is dead from the start (streak 9); the fault leaves that streak
  // alone and gives live peer 3 a shorter qualifying one.
  const auto d = with_corrupted_streaks(
      c,
      [](DetectorCore& d) {
        for (int round = 0; round < 9; ++round) run_round(d, {1, 2, 3});
      },
      [](const DetectorCore& d) {
        const std::uint32_t s = d.suspect_streak(ProcessId{3});
        return d.suspect_streak(ProcessId{4}) == 9 && s >= 2 && s % 2 != 0;
      });
  ASSERT_NE(d, nullptr);
  ASSERT_GT(d->suspect_streak(ProcessId{4}), d->suspect_streak(ProcessId{3}));
  ASSERT_GE(d->suspect_streak(ProcessId{3}), 2u);
  d->begin_query();
  EXPECT_FALSE(d->should_query(ProcessId{4}));  // longest streak wins budget
  EXPECT_TRUE(d->should_query(ProcessId{3}));
}

TEST(DetectorCore, GiveupProbeResponseEndsTheSkipEvenIfTheDefenceIsLate) {
  // n=4, f=1, K=2. Peer 3 is silent for three rounds: suspected, streak 3,
  // skipped. Then it is alive again, but its defence (the mistake it makes
  // on seeing its suspicion in our query) reaches us only after the
  // round's finish_round, every time. It must still leave the skip set at
  // its first probe response. Counting streaks by suspicion alone kept it
  // there: a skipped peer is silent and re-suspected every round, so its
  // streak never reset.
  auto c = cfg(0, 4, 1);
  c.giveup_rounds = 2;
  DetectorCore d(c);
  for (int round = 0; round < 3; ++round) run_round(d, {1, 2});
  int probe_round = -1;
  for (int round = 0; round < 12; ++round) {
    d.begin_query();
    const bool queried = d.should_query(ProcessId{3});
    if (probe_round >= 0) {
      EXPECT_TRUE(queried) << "round " << round << ", probe at "
                           << probe_round;
    }
    for (const std::uint32_t r : {1u, 2u, 3u}) {
      if (r == 3 && !queried) continue;  // a skipped peer hears nothing
      (void)d.on_response(ProcessId{r}, ResponseMessage{d.query_seq()});
    }
    ASSERT_TRUE(d.query_terminated());
    d.finish_round();
    const auto suspicion = d.suspicion_tag(ProcessId{3});
    if (!queried || !suspicion) continue;
    if (probe_round < 0) probe_round = round;
    QueryMessage defence;  // peer 3's next query, after our finish_round
    defence.seq = 100 + static_cast<QuerySeq>(round);
    defence.push_mistake({ProcessId{3}, *suspicion + 1});
    (void)d.on_query(ProcessId{3}, defence);
    EXPECT_FALSE(d.is_suspected(ProcessId{3}));
  }
  EXPECT_GE(probe_round, 0);
}

TEST(DetectorCore, GiveupZeroDisablesThePolicy) {
  auto c = cfg(0, 4, 1);
  c.giveup_rounds = 0;
  DetectorCore d(c);
  for (int round = 0; round < 12; ++round) {
    run_round(d, {1, 2});
    d.begin_query();
    EXPECT_TRUE(d.should_query(ProcessId{3}));
    for (const std::uint32_t r : {1u, 2u}) {
      (void)d.on_response(ProcessId{r}, ResponseMessage{d.query_seq()});
    }
    d.finish_round();
  }
  EXPECT_EQ(d.queries_skipped(), 0u);
}

TEST(DetectorCore, CorruptionIsDeterministicPerSeed) {
  const auto scrambled_state = [](std::uint64_t seed) {
    DetectorCore d(delta_cfg(0, 6, 2));
    for (int round = 0; round < 3; ++round) run_round(d, {1, 2, 3});
    d.inject_transient_corruption(seed);
    const QueryMessage listed = d.full_query();
    const auto sus = listed.suspected();
    const auto mis = listed.mistakes();
    return std::tuple{d.counter(),
                      std::vector<TaggedEntry>(sus.begin(), sus.end()),
                      std::vector<TaggedEntry>(mis.begin(), mis.end()),
                      d.state_epoch()};
  };
  EXPECT_EQ(scrambled_state(7), scrambled_state(7));
}

TEST(DetectorCore, CorruptedSelfSuspicionIsRepairedByNextQuery) {
  // Find a corruption seed that plants the self-suspicion no correct
  // execution produces, then check begin_query() repairs it with a
  // dominating self-mistake before any query leaves the node.
  bool found = false;
  for (std::uint64_t seed = 1; seed < 200 && !found; ++seed) {
    DetectorCore d(delta_cfg(0, 6, 2));
    for (int round = 0; round < 2; ++round) run_round(d, {1, 2, 3});
    d.inject_transient_corruption(seed);
    if (!d.is_suspected(ProcessId{0})) continue;
    found = true;
    const Tag bad_tag = *d.suspicion_tag(ProcessId{0});
    d.begin_query();
    EXPECT_FALSE(d.is_suspected(ProcessId{0}));
    const auto repair = d.mistake_tag(ProcessId{0});
    ASSERT_TRUE(repair.has_value());
    EXPECT_GT(*repair, bad_tag);  // dominates the corrupted suspicion
    // The round machinery is intact: queries build and the round runs.
    for (std::uint32_t p = 1; p < 6; ++p) {
      (void)d.query_for(ProcessId{p});
    }
    for (const std::uint32_t r : {1u, 2u, 3u}) {
      (void)d.on_response(ProcessId{r}, ResponseMessage{d.query_seq()});
    }
    ASSERT_TRUE(d.query_terminated());
    d.finish_round();
  }
  EXPECT_TRUE(found) << "no seed in [1, 200) produced a self-suspicion";
}

TEST(DetectorCore, CorruptedJournalStillBuildsWellFormedQueries) {
  // The replay window can name ids that are now in neither set, and the
  // watermarks can claim absurd epochs — query construction must stay
  // total and every emitted entry must come from exactly one set.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    DetectorCore d(delta_cfg(0, 6, 2));
    for (int round = 0; round < 4; ++round) run_round(d, {1, 2, 3});
    d.inject_transient_corruption(seed);
    d.begin_query();
    for (std::uint32_t p = 1; p < 6; ++p) {
      const QueryMessage q = d.query_for(ProcessId{p});
      ASSERT_LE(q.suspected_count, q.entries.size());
      for (const auto& e : q.suspected()) {
        EXPECT_EQ(d.suspicion_tag(e.id), e.tag) << "seed " << seed;
      }
      for (const auto& e : q.mistakes()) {
        EXPECT_EQ(d.mistake_tag(e.id), e.tag) << "seed " << seed;
      }
    }
    for (const std::uint32_t r : {1u, 2u, 3u}) {
      (void)d.on_response(ProcessId{r}, ResponseMessage{d.query_seq()});
    }
    ASSERT_TRUE(d.query_terminated());
    d.finish_round();
  }
}

TEST(DetectorCore, RecorderSuspicionsMatchTheObserverThroughCorruption) {
  // The recorder's suspicion section is the live path's whole suspicion
  // history, so it must carry exactly the suspected/cleared transitions an
  // observer sees, the set diff of a transient fault included.
  using Transition = std::tuple<obs::TraceKind, std::uint32_t, std::uint32_t>;
  struct Transitions final : SuspicionObserver {
    std::vector<Transition> seen;
    void on_suspected(ProcessId s, Tag tag) override {
      seen.emplace_back(obs::TraceKind::kSuspectAdd, s.value,
                        static_cast<std::uint32_t>(tag));
    }
    void on_cleared(ProcessId s, Tag tag) override {
      seen.emplace_back(obs::TraceKind::kSuspectDrop, s.value,
                        static_cast<std::uint32_t>(tag));
    }
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Transitions observer;
    obs::FlightRecorder recorder(4, obs::TraceClock{});
    DetectorCore d(delta_cfg(0, 8, 2));
    d.set_observer(&observer);
    d.set_recorder(&recorder);
    // Peer 7 stays silent, so the history has a transition before the
    // fault; the rounds after it repair a planted self-suspicion.
    for (int round = 0; round < 6; ++round) {
      if (round == 3) d.inject_transient_corruption(seed);
      run_round(d, {1, 2, 3, 4, 5, 6});
    }
    std::vector<Transition> traced;
    for (const obs::TraceRecord& r : recorder.suspicions()) {
      traced.emplace_back(r.kind, r.a, r.b);
    }
    EXPECT_EQ(traced, observer.seen) << "seed " << seed;
  }
}

TEST(DetectorCore, ResyncIntervalDiscardsSeenWatermarks) {
  auto c = delta_cfg(0, 4, 1);
  c.resync_interval = 2;
  DetectorCore d(c);
  // Merge a query from peer 1 at epoch 5: the watermark sticks.
  QueryMessage q;
  q.seq = 1;
  q.epoch = 5;
  q.push_suspected({ProcessId{3}, 1});
  (void)d.on_query(ProcessId{1}, q);
  EXPECT_EQ(d.seen_epoch(ProcessId{1}), 5u);
  run_round(d, {1, 2});
  EXPECT_EQ(d.seen_epoch(ProcessId{1}), 5u);  // round 1: interval not hit
  run_round(d, {1, 2});
  // Round 2 hits the interval: every seen watermark is dropped, so the next
  // delta from peer 1 gets a need_full answer (one full refresh per sender
  // bounds the lifetime of any fabricated watermark).
  EXPECT_EQ(d.seen_epoch(ProcessId{1}), 0u);
  QueryMessage delta;
  delta.seq = 2;
  delta.epoch = 7;
  delta.base_epoch = 5;
  delta.set_delta(true);
  const ResponseMessage r = d.on_query(ProcessId{1}, delta);
  EXPECT_TRUE(r.need_full);
}

TEST(DetectorCore, ResyncZeroKeepsWatermarksForever) {
  auto c = delta_cfg(0, 4, 1);
  c.resync_interval = 0;
  DetectorCore d(c);
  QueryMessage q;
  q.seq = 1;
  q.epoch = 5;
  (void)d.on_query(ProcessId{1}, q);
  for (int round = 0; round < 8; ++round) run_round(d, {1, 2});
  EXPECT_EQ(d.seen_epoch(ProcessId{1}), 5u);
}

}  // namespace
}  // namespace mmrfd::core
