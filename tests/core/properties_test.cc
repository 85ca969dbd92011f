#include "core/properties.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "metrics/export.h"

namespace mmrfd::core {
namespace {

std::vector<ProcessId> ids(std::initializer_list<std::uint32_t> vs) {
  std::vector<ProcessId> out;
  for (auto v : vs) out.push_back(ProcessId{v});
  return out;
}

// Records `rounds` queries per issuer; process p wins issuer q's query k iff
// `wins(p, q, k)` returns true.
template <typename WinFn>
PropertyRecorder make_trace(std::uint32_t n, int rounds, WinFn wins) {
  PropertyRecorder rec(n);
  for (int k = 0; k < rounds; ++k) {
    for (std::uint32_t q = 0; q < n; ++q) {
      std::vector<ProcessId> winning;
      for (std::uint32_t p = 0; p < n; ++p) {
        if (p == q || wins(ProcessId{p}, ProcessId{q}, k)) {
          winning.push_back(ProcessId{p});
        }
      }
      rec.record(ProcessId{q}, static_cast<QuerySeq>(k + 1),
                 from_millis(100 * (k + 1)), winning);
    }
  }
  return rec;
}

TEST(MpChecker, PerpetualWinnerYieldsPerpetualMp) {
  // p0 wins every query of everyone, forever: the perpetual (class-S)
  // property holds with holds_from = 0.
  const auto rec = make_trace(5, 10, [](ProcessId p, ProcessId, int) {
    return p == ProcessId{0};
  });
  const auto correct = ids({0, 1, 2, 3, 4});
  MpChecker checker(rec, /*f=*/1, correct);
  const auto v = checker.check();
  ASSERT_TRUE(v.holds);
  EXPECT_TRUE(v.holds_perpetually);
  EXPECT_EQ(v.witness, ProcessId{0});
  EXPECT_EQ(v.holds_from, kTimeZero);
  EXPECT_EQ(v.quorum_set.size(), 5u);  // every correct issuer is covered
}

TEST(MpChecker, EventualWinnerYieldsEventualMp) {
  // p0 starts winning only from round 5 on.
  const auto rec = make_trace(5, 12, [](ProcessId p, ProcessId, int k) {
    return p == ProcessId{0} && k >= 5;
  });
  MpChecker checker(rec, 1, ids({0, 1, 2, 3, 4}));
  const auto v = checker.check();
  ASSERT_TRUE(v.holds);
  EXPECT_FALSE(v.holds_perpetually);
  EXPECT_EQ(v.witness, ProcessId{0});
  // Last violating query terminated at round 5 (1-based time 100*5).
  EXPECT_EQ(v.holds_from, from_millis(500));
}

TEST(MpChecker, NoWinnerMeansNoMp) {
  // Everyone misses everyone else's queries always (only self wins).
  const auto rec =
      make_trace(4, 10, [](ProcessId, ProcessId, int) { return false; });
  MpChecker checker(rec, 1, ids({0, 1, 2, 3}));
  EXPECT_FALSE(checker.check().holds);
}

TEST(MpChecker, WitnessMustBeCorrect) {
  // p0 wins everywhere but is NOT in the correct set; p1 wins nowhere.
  const auto rec = make_trace(4, 10, [](ProcessId p, ProcessId, int) {
    return p == ProcessId{0};
  });
  MpChecker checker(rec, 1, ids({1, 2, 3}));
  EXPECT_FALSE(checker.check().holds);
}

TEST(MpChecker, QuorumVariantNeedsOnlyKIssuers) {
  // p0 wins only the queries of p1: the strict (all-correct) form fails,
  // but the quorum relaxation with 2 issuers holds — p0's own queries
  // supply the second issuer (self always wins).
  const auto rec = make_trace(4, 10, [](ProcessId p, ProcessId q, int) {
    return p == ProcessId{0} && q == ProcessId{1};
  });
  MpChecker checker(rec, 1, ids({0, 1, 2, 3}));
  EXPECT_FALSE(checker.check().holds);
  const auto v2 = checker.check_with_quorum(2);
  ASSERT_TRUE(v2.holds);
  EXPECT_EQ(v2.quorum_set, ids({0, 1}));
  // Three issuers cannot be covered: p0 only wins at {p0, p1}.
  EXPECT_FALSE(checker.check_with_quorum(3).holds);
}

TEST(MpChecker, StrictFormRequiresEveryCorrectIssuer) {
  // p0 wins everywhere except p3's queries: strict MP fails — p3 would
  // regenerate suspicions of p0 forever — while the 3-issuer quorum form
  // still holds.
  const auto rec = make_trace(4, 10, [](ProcessId p, ProcessId q, int) {
    return p == ProcessId{0} && q != ProcessId{3};
  });
  MpChecker checker(rec, 1, ids({0, 1, 2, 3}));
  EXPECT_FALSE(checker.check().holds);
  EXPECT_TRUE(checker.check_with_quorum(3).holds);
}

TEST(MpChecker, VacuousSuffixRejected) {
  // p0 wins only the very last query of each issuer — fewer than
  // min_queries_after remain afterwards, so the "eventually" is vacuous.
  const auto rec = make_trace(4, 10, [](ProcessId p, ProcessId, int k) {
    return p == ProcessId{0} && k == 9;
  });
  MpChecker checker(rec, 1, ids({0, 1, 2, 3}));
  const auto v = checker.check(/*min_queries_after=*/3);
  // p0's own queries still count (self always wins, all 10 rounds), but no
  // second issuer has 3 post-violation queries.
  EXPECT_FALSE(v.holds);
}

TEST(MpChecker, WinningFraction) {
  const auto rec = make_trace(3, 10, [](ProcessId p, ProcessId q, int k) {
    return p == ProcessId{0} && q == ProcessId{1} && (k % 2 == 0);
  });
  MpChecker checker(rec, 1, ids({0, 1, 2}));
  EXPECT_DOUBLE_EQ(checker.winning_fraction(ProcessId{0}, ProcessId{1}), 0.5);
  EXPECT_DOUBLE_EQ(checker.winning_fraction(ProcessId{0}, ProcessId{2}), 0.0);
  EXPECT_DOUBLE_EQ(checker.winning_fraction(ProcessId{0}, ProcessId{0}), 1.0);
  EXPECT_EQ(checker.query_count(ProcessId{1}), 10u);
}

TEST(MpChecker, EmptyTraceNoMp) {
  PropertyRecorder rec(3);
  MpChecker checker(rec, 1, ids({0, 1, 2}));
  EXPECT_FALSE(checker.check().holds);
}

TEST(MpChecker, PrefersEarlierStabilization) {
  // Both p0 and p1 are eventual winners; p1 stabilizes earlier and must be
  // chosen as witness.
  const auto rec = make_trace(5, 12, [](ProcessId p, ProcessId, int k) {
    if (p == ProcessId{0}) return k >= 8;
    if (p == ProcessId{1}) return k >= 2;
    return false;
  });
  MpChecker checker(rec, 1, ids({0, 1, 2, 3, 4}));
  const auto v = checker.check();
  ASSERT_TRUE(v.holds);
  EXPECT_EQ(v.witness, ProcessId{1});
}

// The journal keeps each winning set as n bits. At n = 130 the last of the
// three 64-bit words is mostly unused, and the winners come in arrival
// order, as a core hands them over.
TEST(PropertyRecorder, WinningSetIsExactAcrossAPartlyUsedLastWord) {
  PropertyRecorder rec(130);
  const auto arrival = ids({7, 129, 0, 64, 63, 128, 65});
  rec.record(ProcessId{7}, 1, from_millis(5), arrival);
  ASSERT_EQ(rec.records().size(), 1u);
  const QueryRecord& r = rec.records().front();
  for (std::uint32_t p = 0; p < 130; ++p) {
    const bool winner =
        std::find(arrival.begin(), arrival.end(), ProcessId{p}) !=
        arrival.end();
    EXPECT_EQ(r.won(ProcessId{p}), winner) << "p" << p;
  }
  EXPECT_FALSE(r.won(ProcessId{130}));
  EXPECT_FALSE(r.won(ProcessId{191}));  // last bit of the last word
  EXPECT_FALSE(r.won(ProcessId{5000}));
  EXPECT_EQ(r.winners(), ids({0, 7, 63, 64, 65, 128, 129}));
}

TEST(PropertyRecorder, QueriesCsvListsWinnersAscending) {
  PropertyRecorder rec(130);
  rec.record(ProcessId{129}, 4, from_millis(1500), ids({129, 3, 64, 0}));
  rec.record(ProcessId{2}, 9, from_millis(2000), ids({2}));
  std::ostringstream os;
  metrics::export_queries_csv(rec, os);
  EXPECT_EQ(os.str(),
            "issuer,seq,terminated_s,winning\n"
            "129,4,1.5,0;3;64;129\n"
            "2,9,2,2\n");
}

TEST(PropertyRecorder, RejectsIdsOutsidePiInEveryBuild) {
  // An id >= n would set a bit past the set (and index past the checker's
  // per-issuer tables), so the recorder throws rather than asserts.
  PropertyRecorder rec(130);
  EXPECT_THROW(rec.record(ProcessId{3}, 1, from_millis(1), ids({3, 130})),
               std::out_of_range);
  EXPECT_THROW(rec.record(ProcessId{3}, 1, from_millis(1), ids({3, 192})),
               std::out_of_range);
  EXPECT_THROW(rec.record(ProcessId{130}, 1, from_millis(1), ids({0})),
               std::out_of_range);
  EXPECT_TRUE(rec.records().empty());
  rec.record(ProcessId{129}, 1, from_millis(1), ids({129}));
  EXPECT_EQ(rec.records().size(), 1u);
}

TEST(StabilizationChecker, ConvergedTraceIsExactView) {
  // 3 nodes, node 2 crashed: both correct observers end suspecting exactly
  // {2}; a transient false suspicion of a correct node is repaired.
  const std::vector<ProcessId> crashed{ProcessId{2}};
  StabilizationChecker c(3, crashed);
  c.feed(from_seconds(1), ProcessId{0}, ProcessId{2}, true);
  c.feed(from_seconds(1), ProcessId{1}, ProcessId{2}, true);
  c.feed(from_seconds(2), ProcessId{0}, ProcessId{1}, true);   // false
  c.feed(from_seconds(3), ProcessId{0}, ProcessId{1}, false);  // repaired
  const auto v = c.verdict();
  EXPECT_TRUE(v.converged);
  EXPECT_EQ(v.stabilized_at, from_seconds(3));
  EXPECT_TRUE(v.missing.empty());
  EXPECT_TRUE(v.false_suspicions.empty());
}

TEST(StabilizationChecker, MissingSuspicionFailsConvergence) {
  const std::vector<ProcessId> crashed{ProcessId{2}};
  StabilizationChecker c(3, crashed);
  c.feed(from_seconds(1), ProcessId{0}, ProcessId{2}, true);
  // Observer 1 never suspects the crashed node.
  const auto v = c.verdict();
  EXPECT_FALSE(v.converged);
  ASSERT_EQ(v.missing.size(), 1u);
  EXPECT_EQ(v.missing[0].first, ProcessId{1});
  EXPECT_EQ(v.missing[0].second, ProcessId{2});
}

TEST(StabilizationChecker, LingeringFalseSuspicionFailsConvergence) {
  const std::vector<ProcessId> crashed{ProcessId{2}};
  StabilizationChecker c(3, crashed);
  c.feed(from_seconds(1), ProcessId{0}, ProcessId{2}, true);
  c.feed(from_seconds(1), ProcessId{1}, ProcessId{2}, true);
  c.feed(from_seconds(2), ProcessId{1}, ProcessId{0}, true);  // never cleared
  const auto v = c.verdict();
  EXPECT_FALSE(v.converged);
  ASSERT_EQ(v.false_suspicions.size(), 1u);
  EXPECT_EQ(v.false_suspicions[0].first, ProcessId{1});
  EXPECT_EQ(v.false_suspicions[0].second, ProcessId{0});
}

TEST(StabilizationChecker, CrashedObserversAreIgnored) {
  // The crashed node's own (frozen, possibly garbage) view is irrelevant,
  // as are transitions from out-of-range ids (live-path robustness).
  const std::vector<ProcessId> crashed{ProcessId{2}};
  StabilizationChecker c(3, crashed);
  c.feed(from_seconds(1), ProcessId{0}, ProcessId{2}, true);
  c.feed(from_seconds(1), ProcessId{1}, ProcessId{2}, true);
  c.feed(from_seconds(5), ProcessId{2}, ProcessId{0}, true);   // crashed
  c.feed(from_seconds(6), ProcessId{9}, ProcessId{0}, true);   // bogus id
  c.feed(from_seconds(7), ProcessId{0}, ProcessId{9}, true);   // bogus subject
  const auto v = c.verdict();
  EXPECT_TRUE(v.converged);
  EXPECT_EQ(v.stabilized_at, from_seconds(1));
}

TEST(StabilizationChecker, RedundantTransitionsDoNotMoveStabilization) {
  // Re-feeding an already-held view bit (duplicate events, full-query
  // re-merges) must not count as churn.
  const std::vector<ProcessId> crashed{ProcessId{1}};
  StabilizationChecker c(2, crashed);
  c.feed(from_seconds(1), ProcessId{0}, ProcessId{1}, true);
  c.feed(from_seconds(9), ProcessId{0}, ProcessId{1}, true);  // no-op
  const auto v = c.verdict();
  EXPECT_TRUE(v.converged);
  EXPECT_EQ(v.stabilized_at, from_seconds(1));
}

TEST(StabilizationChecker, NoCrashesMeansEmptyViews) {
  StabilizationChecker c(2, {});
  const auto clean = c.verdict();
  EXPECT_TRUE(clean.converged);  // empty views match the empty crashed set
  c.feed(from_seconds(1), ProcessId{0}, ProcessId{1}, true);
  EXPECT_FALSE(c.verdict().converged);
  c.feed(from_seconds(2), ProcessId{0}, ProcessId{1}, false);
  EXPECT_TRUE(c.verdict().converged);
}

}  // namespace
}  // namespace mmrfd::core
