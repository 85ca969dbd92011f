// NodeReport binary codec: round-trip fidelity, total decoding of corrupt
// input, and the two-slot store the SIGKILL-at-any-instant crash model
// depends on.
#include "live/report.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
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

// v5 fixed header: 4 magic + 4 version + 8 snapshot number + 3 u32 ids +
// 1 bool byte + 4 u64s (pacing, origin, snapshot, rounds); the registry
// snapshot follows. Every frame ends with an 8-byte FNV-1a checksum.
constexpr std::size_t kV5HeaderBytes = 4 + 4 + 8 + 3 * 4 + 1 + 4 * 8;
constexpr std::size_t kChecksumBytes = 8;

// 64-bit FNV-1a, written out here rather than borrowed from the codec so the
// tests pin the checksum the format names.
std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Appends a checksum to a body, making it a frame.
std::vector<std::uint8_t> sealed(std::vector<std::uint8_t> body) {
  const std::uint64_t sum = fnv1a64(body);
  for (std::size_t i = 0; i < kChecksumBytes; ++i) {
    body.push_back(static_cast<std::uint8_t>(sum >> (8 * i)));
  }
  return body;
}

// Recomputes a frame's checksum after its body was edited, so a test of the
// parser behind the checksum reaches the parser.
std::vector<std::uint8_t> resealed(std::vector<std::uint8_t> frame) {
  frame.resize(frame.size() - kChecksumBytes);
  return sealed(std::move(frame));
}

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
  // valid report is rejected cleanly (the checksum fails, and the reader
  // falls back to the other slot).
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
  const std::size_t event_count_at =
      bytes.size() - kChecksumBytes - r.events.size() * 21 - 4;
  for (std::size_t i = 0; i < 4; ++i) bytes[event_count_at + i] = 0xFF;
  EXPECT_FALSE(decode_report(bytes).has_value());
  EXPECT_FALSE(decode_report(resealed(bytes)).has_value());
}

TEST(NodeReportCodec, GarbageMetricCountsRejected) {
  // The embedded registry snapshot's counts are sanity-checked against the
  // buffer size too: flood the counter-count field (the first u32 after the
  // fixed v5 header).
  auto bytes = encode_report(sample_report());
  const std::size_t counter_count_at = kV5HeaderBytes;
  for (std::size_t i = 0; i < 4; ++i) bytes[counter_count_at + i] = 0xFF;
  EXPECT_FALSE(decode_report(bytes).has_value());
  EXPECT_FALSE(decode_report(resealed(bytes)).has_value());
}

TEST(NodeReportCodec, V5LayoutHasNoCounterFieldsBesideTheSnapshot) {
  // The fixed header ends at `rounds`; the very next bytes are the registry
  // snapshot's counter count and first counter name. No hand-typed counter
  // copies sit between them.
  const NodeReport r = sample_report();
  const auto bytes = encode_report(r);
  transport::Decoder d(bytes);
  for (std::size_t i = 0; i < 4; ++i) ASSERT_TRUE(d.u8());  // magic
  EXPECT_EQ(d.u32().value_or(0), 5u);
  for (std::size_t i = 8; i < kV5HeaderBytes - 8; ++i) ASSERT_TRUE(d.u8());
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
  // The same bytes relabelled v5 do not parse either, sealed or not: the
  // counter block is not a registry snapshot.
  auto relabelled = v2;
  relabelled[4] = 5;
  EXPECT_FALSE(decode_report(relabelled).has_value());
  EXPECT_FALSE(decode_report(sealed(relabelled)).has_value());
}

TEST(NodeReportCodec, RejectsVersion3File) {
  // A v3 file from a stale run still carries the `reliable` byte after
  // `delta`. The decoder must refuse it, and relabelled v5 the extra byte
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
  relabelled[4] = 5;
  EXPECT_FALSE(decode_report(relabelled).has_value());
  EXPECT_FALSE(decode_report(sealed(relabelled)).has_value());
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
  // Each again behind a valid checksum: the parser rejects them itself.
  corrupted = bytes;
  corrupted[0] = 'X';
  EXPECT_FALSE(decode_report(resealed(corrupted)).has_value());
  corrupted = bytes;
  corrupted[4] = 0xFF;
  EXPECT_FALSE(decode_report(resealed(corrupted)).has_value());
  corrupted = bytes;
  corrupted.insert(corrupted.end() - kChecksumBytes, 0);
  EXPECT_FALSE(decode_report(resealed(corrupted)).has_value());
}

TEST(NodeReportCodec, RejectsVersion4Frame) {
  // A v4 file from a stale run: the v5 frame without its snapshot number
  // and checksum. Refused as it stands, sealed, and sealed with its version
  // relabelled 5.
  const auto v5 = encode_report(sample_report());
  std::vector<std::uint8_t> v4(v5.begin(), v5.begin() + 8);
  v4.insert(v4.end(), v5.begin() + 16, v5.end() - kChecksumBytes);
  v4[4] = 4;
  EXPECT_FALSE(decode_report(v4).has_value());
  EXPECT_FALSE(decode_report(sealed(v4)).has_value());
  auto relabelled = v4;
  relabelled[4] = 5;
  EXPECT_FALSE(decode_report(sealed(relabelled)).has_value());
}

TEST(NodeReportCodec, FixedSeedFuzzOfRandomFramesStaysTotal) {
  // Random frames, most of them behind a valid checksum so they reach the
  // parser: random bytes, random bytes under a v5 magic and version, and a
  // real frame with a few bytes overwritten or cut short. Decoding never
  // crashes (ASan runs this suite), and whatever decodes re-encodes to a
  // report that decodes to itself.
  const auto valid = encode_report(sample_report());
  Xoshiro256 rng(20240611);
  std::size_t decoded = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<std::uint8_t> frame;
    switch (rng.next_below(4)) {
      case 0:
        frame.resize(rng.next_below(256));
        for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next());
        break;
      case 1:
        frame.assign(valid.begin(), valid.begin() + 8);
        for (std::uint64_t i = rng.next_below(256); i > 0; --i) {
          frame.push_back(static_cast<std::uint8_t>(rng.next_below(4) == 0
                                                        ? rng.next()
                                                        : rng.next_below(3)));
        }
        frame = sealed(std::move(frame));
        break;
      case 2:
        frame = valid;
        for (std::uint64_t i = 1 + rng.next_below(4); i > 0; --i) {
          frame[rng.next_below(frame.size() - kChecksumBytes)] =
              static_cast<std::uint8_t>(rng.next());
        }
        frame = resealed(std::move(frame));
        break;
      default:
        frame.assign(valid.begin(),
                     valid.begin() + static_cast<std::ptrdiff_t>(rng.next_below(
                                         valid.size() - kChecksumBytes)));
        frame = sealed(std::move(frame));
        break;
    }
    const auto r = decode_report(frame);
    if (!r) continue;
    ++decoded;
    const auto again = decode_report(encode_report(*r));
    ASSERT_TRUE(again.has_value()) << "iteration " << iter;
    EXPECT_EQ(*again, *r) << "iteration " << iter;
  }
  // Overwritten tags, stamps and counter values still decode: the fuzz
  // reached the end of the parser, not only its first checks.
  EXPECT_GT(decoded, 0u);
}

// A scratch directory under the test's working directory, removed at scope
// exit.
struct ScratchDir {
  std::string path =
      "report_test_tmp." + std::to_string(::getpid()) + "." +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  ScratchDir() { std::filesystem::create_directories(path); }
  ~ScratchDir() { std::filesystem::remove_all(path); }
};

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void put_file(const std::string& path, const std::vector<std::uint8_t>& bytes,
              std::size_t len) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(len));
}

// The k-th snapshot of a run whose suspected set shrinks as it goes, so a
// slot's next frame is shorter than its last one.
NodeReport kth_report(std::uint64_t k) {
  NodeReport r = sample_report();
  r.snapshot_seq = k;
  r.rounds = 100 * k;
  r.snapshot_ns = 1'000'000 * k;
  r.suspected.clear();
  for (std::uint32_t id = 0; id + k < 8; ++id) r.suspected.push_back(id);
  return r;
}

TEST(NodeReportFile, KWritesReadBackAsTheKthSnapshot) {
  const ScratchDir dir;
  const std::string path = dir.path + "/node3.g0.bin";
  EXPECT_FALSE(read_report_file(path).has_value());
  ReportWriter writer(path);
  EXPECT_FALSE(read_report_file(path).has_value());  // opened, not written
  for (std::uint64_t k = 1; k <= 7; ++k) {
    NodeReport r = kth_report(k);
    r.snapshot_seq = 0;  // the writer stamps the number
    ASSERT_TRUE(writer.write(r));
    const auto back = read_report_file(path);
    ASSERT_TRUE(back.has_value()) << "after write " << k;
    EXPECT_EQ(*back, kth_report(k));
    // Snapshot k sits whole in slot k mod 2, at exactly its frame length.
    const std::string slot = k % 2 == 0 ? path : report_slot_path(path);
    EXPECT_EQ(file_bytes(slot), encode_report(kth_report(k)));
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(read_report_file(dir.path + "/absent.bin").has_value());
}

TEST(NodeReportFile, DamagedNewestSlotYieldsExactlyThePreviousSnapshot) {
  // A SIGKILL mid-pwrite leaves the newest slot cut short at any length; a
  // reader overlapping the write sees some bytes changed. Either way the
  // reader must return snapshot k - 1 from the other slot, whole.
  const ScratchDir dir;
  const std::string path = dir.path + "/node3.g0.bin";
  ReportWriter writer(path);
  ASSERT_TRUE(writer.write(kth_report(1)));
  ASSERT_TRUE(writer.write(kth_report(2)));
  const auto newest = file_bytes(path);  // snapshot 2, slot 0
  ASSERT_EQ(newest, encode_report(kth_report(2)));
  for (std::size_t len = 0; len < newest.size(); ++len) {
    put_file(path, newest, len);
    const auto r = read_report_file(path);
    ASSERT_TRUE(r.has_value()) << "slot cut at " << len;
    EXPECT_EQ(*r, kth_report(1)) << "slot cut at " << len;
  }
  for (std::size_t at = 0; at < newest.size(); ++at) {
    auto flipped = newest;
    flipped[at] ^= 0xFF;
    put_file(path, flipped, flipped.size());
    const auto r = read_report_file(path);
    ASSERT_TRUE(r.has_value()) << "byte " << at << " flipped";
    EXPECT_EQ(*r, kth_report(1)) << "byte " << at << " flipped";
  }
}

TEST(NodeReportFile, BothSlotsDamagedYieldNullopt) {
  const ScratchDir dir;
  const std::string path = dir.path + "/node3.g0.bin";
  ReportWriter writer(path);
  ASSERT_TRUE(writer.write(kth_report(1)));
  ASSERT_TRUE(writer.write(kth_report(2)));
  const auto even = file_bytes(path);
  auto odd = file_bytes(report_slot_path(path));
  put_file(path, even, even.size() / 2);
  odd[odd.size() / 2] ^= 0x01;
  put_file(report_slot_path(path), odd, odd.size());
  EXPECT_FALSE(read_report_file(path).has_value());
}

TEST(NodeReportFile, StaleSlotOfAnEarlierRunIsNeverReturned) {
  // An earlier incarnation at the same path left slot 1 holding snapshot
  // 1000. A new writer truncates both slots when it opens them, so its own
  // snapshots 1, 2, ... win from the start, though their numbers are
  // smaller.
  const ScratchDir dir;
  const std::string path = dir.path + "/node3.g0.bin";
  NodeReport stale = kth_report(5);
  stale.snapshot_seq = 1000;
  const auto stale_bytes = encode_report(stale);
  put_file(report_slot_path(path), stale_bytes, stale_bytes.size());
  put_file(path, stale_bytes, stale_bytes.size());
  ASSERT_EQ(read_report_file(path)->snapshot_seq, 1000u);

  ReportWriter writer(path);
  EXPECT_FALSE(read_report_file(path).has_value());
  for (std::uint64_t k = 1; k <= 3; ++k) {
    ASSERT_TRUE(writer.write(kth_report(k)));
    const auto r = read_report_file(path);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->snapshot_seq, k);
    EXPECT_EQ(*r, kth_report(k));
  }
}

TEST(NodeReportFile, PollingReaderNeverFallsBehindAWriterThatLapsIt) {
  // A writer snapshotting as fast as it can rewrites each slot every few
  // microseconds, so it can lap a polling reader between the reader's slot
  // reads. Whatever a read returns must still be a whole snapshot no older
  // than the newest one written before the read began. The writer goes on
  // until the reader has checked 200 snapshots, so a slow reader still
  // checks some.
  const ScratchDir dir;
  const std::string path = dir.path + "/node3.g0.bin";
  constexpr std::size_t kChecks = 200;
  ReportWriter writer(path);
  std::atomic<std::uint64_t> written{0};
  std::atomic<std::size_t> checked{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> write_failed{false};
  std::thread snapshots([&] {
    for (std::uint64_t k = 1; !stop && (k <= 2000 || checked < kChecks); ++k) {
      if (!writer.write(kth_report(k))) {
        write_failed = true;
        break;
      }
      written = k;
    }
    stop = true;
  });
  std::uint64_t seen = 0;
  while (!stop) {
    const std::uint64_t floor = std::max(seen, written.load());
    const auto r = read_report_file(path);
    if (!r) continue;
    const bool ok = r->snapshot_seq >= floor &&
                    *r == kth_report(r->snapshot_seq);
    EXPECT_TRUE(ok) << "read " << r->snapshot_seq << " after snapshot "
                    << floor << " was complete";
    if (!ok) stop = true;
    seen = r->snapshot_seq;
    ++checked;
  }
  snapshots.join();
  EXPECT_FALSE(write_failed);
  const auto last = read_report_file(path);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(*last, kth_report(written));
}

TEST(NodeReportFile, WriterOnAMissingDirectoryFailsWithoutThrowing) {
  ReportWriter writer("report_test_absent_dir/node0.g0.bin");
  EXPECT_FALSE(writer.write(kth_report(1)));
  EXPECT_FALSE(
      read_report_file("report_test_absent_dir/node0.g0.bin").has_value());
}

}  // namespace
}  // namespace mmrfd::live
