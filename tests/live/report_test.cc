// NodeReport binary codec: round-trip fidelity, total decoding of corrupt
// input, and the atomic file write the SIGKILL-at-any-instant crash model
// depends on.
#include "live/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "transport/codec.h"

namespace mmrfd::live {
namespace {

NodeReport sample_report() {
  NodeReport r;
  r.self = 3;
  r.n = 8;
  r.f = 2;
  r.delta = true;
  r.pacing_ns = 50'000'000;
  r.origin_ns = 1'234'567'890'000ull;
  r.snapshot_ns = 9'876'543'210ull;
  r.rounds = 431;
  r.metrics.counters = {{"codec.malformed", 4},
                        {"fault.dropped", 31},
                        {"rt.rounds", 431},
                        {"udp.bytes_sent", 160'000}};
  r.metrics.gauges = {{"udp.rcvbuf_bytes", 425'984}};
  {
    obs::HistogramSnapshot h;
    h.name = "rt.round_rtt_ns";
    h.count = 431;
    h.sum = 431'000'000;
    h.buckets = {{200, 430}, {212, 1}};
    r.metrics.histograms = {std::move(h)};
  }
  r.suspected = {5, 7};
  r.events = {
      ReportEvent{1'000'000, 5, 0, 3},
      ReportEvent{2'000'000, 5, 2, 4},
      ReportEvent{2'000'001, 5, 1, 4},
      ReportEvent{7'000'000, 7, 0, 9},
  };
  return r;
}

// v4 fixed header: 4 magic + 4 version + 3 u32 ids + 1 bool byte + 4 u64s
// (pacing, origin, snapshot, rounds); the registry snapshot follows.
constexpr std::size_t kV4HeaderBytes = 4 + 4 + 3 * 4 + 1 + 4 * 8;

TEST(NodeReportCodec, RoundTripsEveryField) {
  const NodeReport r = sample_report();
  const auto bytes = encode_report(r);
  const auto decoded = decode_report(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, r);
}

TEST(NodeReportCodec, EmptySetsRoundTrip) {
  NodeReport r;
  r.self = 0;
  r.n = 2;
  r.f = 1;
  const auto decoded = decode_report(encode_report(r));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, r);
  EXPECT_TRUE(decoded->suspected.empty());
  EXPECT_TRUE(decoded->events.empty());
}

TEST(NodeReportCodec, EveryTruncationDecodesToNullopt) {
  // A SIGKILL mid-write must never crash the aggregator: every prefix of a
  // valid report is rejected cleanly (the atomic rename makes torn files
  // unreachable in practice, but decode stays total regardless).
  const auto bytes = encode_report(sample_report());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        decode_report(std::span(bytes.data(), len)).has_value())
        << "prefix of length " << len << " decoded";
  }
}

TEST(NodeReportCodec, GarbageLengthFieldRejectedWithoutAllocating) {
  // A corrupt count must fail against the bytes actually present, not
  // drive a reserve() of gigabytes before the first element read fails.
  const NodeReport r = sample_report();
  auto bytes = encode_report(r);
  const std::size_t event_count_at = bytes.size() - r.events.size() * 21 - 4;
  for (std::size_t i = 0; i < 4; ++i) bytes[event_count_at + i] = 0xFF;
  EXPECT_FALSE(decode_report(bytes).has_value());
}

TEST(NodeReportCodec, GarbageMetricCountsRejected) {
  // The embedded registry snapshot's counts are sanity-checked against the
  // buffer size too: flood the counter-count field (the first u32 after the
  // fixed v4 header).
  auto bytes = encode_report(sample_report());
  const std::size_t counter_count_at = kV4HeaderBytes;
  for (std::size_t i = 0; i < 4; ++i) bytes[counter_count_at + i] = 0xFF;
  EXPECT_FALSE(decode_report(bytes).has_value());
}

TEST(NodeReportCodec, V4LayoutHasNoCounterFieldsBesideTheSnapshot) {
  // The fixed header ends at `rounds`; the very next bytes are the registry
  // snapshot's counter count and first counter name. No hand-typed counter
  // copies sit between them.
  const NodeReport r = sample_report();
  const auto bytes = encode_report(r);
  transport::Decoder d(bytes);
  for (std::size_t i = 0; i < 4; ++i) ASSERT_TRUE(d.u8());  // magic
  EXPECT_EQ(d.u32().value_or(0), 4u);
  for (std::size_t i = 8; i < kV4HeaderBytes - 8; ++i) ASSERT_TRUE(d.u8());
  EXPECT_EQ(d.u64().value_or(0), r.rounds);
  EXPECT_EQ(d.u32().value_or(0), r.metrics.counters.size());
  EXPECT_EQ(d.u32().value_or(0), r.metrics.counters.front().name.size());
}

TEST(NodeReportCodec, RejectsVersion2File) {
  // A v2 file from a stale run: same magic, version 2 and its 24 extra
  // counter fields. The decoder must refuse it rather than misread the
  // counters as the registry snapshot.
  transport::Encoder e;
  for (const char c : {'M', 'M', 'R', 'L'}) e.u8(static_cast<std::uint8_t>(c));
  e.u32(2);
  for (int i = 0; i < 3; ++i) e.u32(1);
  e.u8(1);
  e.u8(0);
  for (int i = 0; i < 4 + 24; ++i) e.u64(0);
  for (int i = 0; i < 3; ++i) e.u32(0);  // empty registry snapshot
  e.u32(0);                              // suspected
  e.u32(0);                              // events
  const auto v2 = e.take();
  EXPECT_FALSE(decode_report(v2).has_value());
  // The same bytes relabelled v4 do not parse either: the counter block is
  // not a registry snapshot.
  auto relabelled = v2;
  relabelled[4] = 4;
  EXPECT_FALSE(decode_report(relabelled).has_value());
}

TEST(NodeReportCodec, RejectsVersion3File) {
  // A v3 file from a stale run still carries the `reliable` byte after
  // `delta`. The decoder must refuse it, and relabelled v4 the extra byte
  // shifts every later field, which must not parse either.
  transport::Encoder e;
  for (const char c : {'M', 'M', 'R', 'L'}) e.u8(static_cast<std::uint8_t>(c));
  e.u32(3);
  for (int i = 0; i < 3; ++i) e.u32(1);
  e.u8(1);  // delta
  e.u8(1);  // reliable
  for (int i = 0; i < 4; ++i) e.u64(0);
  for (int i = 0; i < 3; ++i) e.u32(0);  // empty registry snapshot
  e.u32(0);                              // suspected
  e.u32(0);                              // events
  const auto v3 = e.take();
  EXPECT_FALSE(decode_report(v3).has_value());
  auto relabelled = v3;
  relabelled[4] = 4;
  EXPECT_FALSE(decode_report(relabelled).has_value());
}

TEST(NodeReportCodec, RejectsBadMagicVersionAndTrailingGarbage) {
  auto bytes = encode_report(sample_report());
  auto corrupted = bytes;
  corrupted[0] = 'X';
  EXPECT_FALSE(decode_report(corrupted).has_value());
  corrupted = bytes;
  corrupted[4] = 0xFF;  // version
  EXPECT_FALSE(decode_report(corrupted).has_value());
  corrupted = bytes;
  corrupted.push_back(0);  // trailing garbage
  EXPECT_FALSE(decode_report(corrupted).has_value());
}

TEST(NodeReportFile, WriteReadRoundTripAndMissingFile) {
  const std::string dir =
      "report_test_tmp." + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/node3.g0.bin";
  const NodeReport r = sample_report();
  ASSERT_TRUE(write_report_file(r, path));
  const auto back = read_report_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, r);
  // No leftover temp file (the write renamed it into place).
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(read_report_file(dir + "/absent.bin").has_value());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mmrfd::live
