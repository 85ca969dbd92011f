// Unit tests for the flight recorder: ring wraparound order, the
// never-wrapping suspicion section, pluggable clock stamping, and the
// binary dump's round trip through the loader.
#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/trace_assembler.h"

namespace mmrfd::obs {
namespace {

std::uint64_t fake_now(const void* ctx) {
  return *static_cast<const std::uint64_t*>(ctx);
}

TEST(FlightRecorder, RecordsArriveOldestFirstWithMonotoneSeq) {
  std::uint64_t now = 100;
  FlightRecorder rec(8, TraceClock{&fake_now, &now});
  rec.record(TraceKind::kRoundOpen, 1);
  now = 200;
  rec.record(TraceKind::kQueryTx, 2, 64);
  now = 300;
  rec.record(TraceKind::kRoundClose, 1, 0);

  const auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0],
            (TraceRecord{100, 0, 1, 0, TraceKind::kRoundOpen}));
  EXPECT_EQ(records[1], (TraceRecord{200, 1, 2, 64, TraceKind::kQueryTx}));
  EXPECT_EQ(records[2], (TraceRecord{300, 2, 1, 0, TraceKind::kRoundClose}));
  EXPECT_EQ(rec.recorded(), 3u);
}

TEST(FlightRecorder, RingWrapsKeepingTheNewestRecords) {
  std::uint64_t now = 0;
  FlightRecorder rec(4, TraceClock{&fake_now, &now});
  for (std::uint32_t i = 0; i < 10; ++i) {
    now = i;
    rec.record(TraceKind::kSuspectAdd, i);
  }
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.capacity(), 4u);
  const auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 4u);
  // The survivors are the last four writes, oldest first.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, 6 + i);
    EXPECT_EQ(records[i].a, 6 + i);
    EXPECT_EQ(records[i].t_ns, 6 + i);
  }
}

TEST(FlightRecorder, SuspicionSectionOutlivesTheRing) {
  // Ten suspicion records among a hundred others in a 4-slot ring: the
  // ring keeps the last four writes, the suspicion section keeps all ten.
  std::uint64_t now = 0;
  FlightRecorder rec(4, TraceClock{&fake_now, &now});
  std::vector<TraceRecord> expected;
  for (std::uint32_t i = 0; i < 110; ++i) {
    now = 1000 + i;
    if (i % 11 == 5) {
      const TraceKind kind =
          i % 2 == 0 ? TraceKind::kSuspectAdd : TraceKind::kSuspectDrop;
      rec.record(kind, i, 3 * i);
      expected.push_back(TraceRecord{now, i, i, 3 * i, kind});
    } else {
      rec.record(TraceKind::kQueryTx, i, 64);
    }
  }
  ASSERT_EQ(expected.size(), 10u);
  EXPECT_EQ(rec.suspicions(), expected);
  const auto ring = rec.snapshot();
  ASSERT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.front().seq, 106u);
}

TEST(FlightRecorder, ZeroCapacityStillHoldsTheLatestRecord) {
  FlightRecorder rec(0, TraceClock{});
  EXPECT_EQ(rec.capacity(), 1u);
  rec.record(TraceKind::kResync, 1);
  rec.record(TraceKind::kResync, 2);
  const auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].a, 2u);
  EXPECT_EQ(records[0].seq, 1u);
}

TEST(FlightRecorder, NullClockStampsZero) {
  FlightRecorder rec(2, TraceClock{});
  rec.record(TraceKind::kRoundOpen);
  EXPECT_EQ(rec.snapshot().at(0).t_ns, 0u);
}

TEST(TraceKindName, CoversEveryKind) {
  EXPECT_EQ(trace_kind_name(TraceKind::kRoundOpen), "round_open");
  EXPECT_EQ(trace_kind_name(TraceKind::kRoundClose), "round_close");
  EXPECT_EQ(trace_kind_name(TraceKind::kQueryTx), "query_tx");
  EXPECT_EQ(trace_kind_name(TraceKind::kQueryRx), "query_rx");
  EXPECT_EQ(trace_kind_name(TraceKind::kResponseTx), "response_tx");
  EXPECT_EQ(trace_kind_name(TraceKind::kResponseRx), "response_rx");
  EXPECT_EQ(trace_kind_name(TraceKind::kSuspectAdd), "suspect_add");
  EXPECT_EQ(trace_kind_name(TraceKind::kSuspectDrop), "suspect_drop");
  EXPECT_EQ(trace_kind_name(TraceKind::kNeedFullTx), "need_full_tx");
  EXPECT_EQ(trace_kind_name(TraceKind::kNeedFullRx), "need_full_rx");
  EXPECT_EQ(trace_kind_name(TraceKind::kResync), "resync");
  EXPECT_EQ(trace_kind_name(TraceKind::kGiveUpSkip), "giveup_skip");
  EXPECT_EQ(trace_kind_name(TraceKind::kResendWave), "resend_wave");
  EXPECT_EQ(trace_kind_name(TraceKind::kQuorum), "quorum");
  EXPECT_EQ(trace_kind_name(TraceKind::kPeerRound), "peer_round");
  EXPECT_EQ(kMaxTraceKind, 15);
  EXPECT_EQ(trace_kind_name(static_cast<TraceKind>(16)), "unknown");
}

TEST(FlightRecorder, BinaryDumpOfAMultiChunkRingLoadsAsItsSnapshot) {
  // A ring three and a bit write chunks long, dumped before it wraps (only
  // the filled slots go out) and after (every slot): each dump must load as
  // exactly the snapshot, oldest first.
  constexpr std::uint64_t kCapacity = 3 * FlightRecorder::kDumpChunkRecords + 5;
  std::uint64_t now = 0;
  FlightRecorder rec(kCapacity, TraceClock{&fake_now, &now});
  const std::string path = testing::TempDir() + "/mmrfd_flight_recorder_" +
                           std::to_string(::getpid()) + ".trace";
  for (const std::uint64_t total : {kCapacity - 100, 2 * kCapacity + 100}) {
    while (now < total) {
      ++now;
      rec.record(static_cast<TraceKind>(1 + now % kMaxTraceKind),
                 static_cast<std::uint32_t>(now),
                 static_cast<std::uint32_t>(7 * now));
    }
    ASSERT_TRUE(rec.dump_binary_to_file(path));
    const std::uint64_t filled = std::min(total, kCapacity);
    EXPECT_EQ(std::filesystem::file_size(path), 24 + 29 * filled);
    const auto loaded = load_trace_records(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->size(), filled);
    EXPECT_EQ(*loaded, rec.snapshot());
  }
  std::remove(path.c_str());

  EXPECT_FALSE(rec.dump_binary_to_file("/nonexistent-dir-zz/x.trace"));
}

}  // namespace
}  // namespace mmrfd::obs
