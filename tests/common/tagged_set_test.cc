#include "common/tagged_set.h"

#include <gtest/gtest.h>

namespace mmrfd {
namespace {

TEST(ChangeJournal, EpochCountsRecords) {
  ChangeJournal j(8);
  EXPECT_EQ(j.epoch(), 0u);
  EXPECT_EQ(j.record(ProcessId{3}), 1u);
  EXPECT_EQ(j.record(ProcessId{5}), 2u);
  EXPECT_EQ(j.epoch(), 2u);
  EXPECT_TRUE(j.covers(0));
  EXPECT_TRUE(j.covers(2));
  EXPECT_FALSE(j.covers(3));  // the future is not replayable
}

TEST(ChangeJournal, ChangedSinceIsSortedAndDeduplicated) {
  ChangeJournal j(64);
  j.record(ProcessId{9});
  j.record(ProcessId{2});
  j.record(ProcessId{9});
  j.record(ProcessId{5});
  const auto all = j.changed_since(0);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], ProcessId{2});
  EXPECT_EQ(all[1], ProcessId{5});
  EXPECT_EQ(all[2], ProcessId{9});
  // A suffix: only what changed after epoch 2.
  const auto tail = j.changed_since(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0], ProcessId{5});
  EXPECT_EQ(tail[1], ProcessId{9});
  EXPECT_TRUE(j.changed_since(4).empty());
}

TEST(ChangeJournal, CompactionDropsOldEpochs) {
  // capacity c: after more than 2c buffered records the oldest half is
  // discarded; acks older than base() must then report !covers() (the
  // sender's full-encoding fallback).
  ChangeJournal j(4);
  for (std::uint32_t i = 0; i < 9; ++i) j.record(ProcessId{i});
  EXPECT_EQ(j.epoch(), 9u);
  EXPECT_GT(j.base(), 0u);
  EXPECT_FALSE(j.covers(0));
  EXPECT_TRUE(j.covers(j.base()));
  // The surviving window replays correctly.
  const auto tail = j.changed_since(j.base());
  EXPECT_EQ(tail.size(), j.epoch() - j.base());
}

TEST(ChangeJournal, CoversStaysExactAcrossManyCompactions) {
  ChangeJournal j(2);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    j.record(ProcessId{i % 7});
    ASSERT_EQ(j.epoch(), i + 1u);
    ASSERT_TRUE(j.covers(j.epoch()));
    ASSERT_TRUE(j.changed_since(j.epoch()).empty());
  }
}

}  // namespace
}  // namespace mmrfd
