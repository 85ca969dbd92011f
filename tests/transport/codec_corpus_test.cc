// Mutated-datagram corpus for the wire codec.
//
// The decode path is the one piece of the system that parses bytes an
// adversary (or a flaky NIC) controls, so it must be *total*: any input —
// bit-flipped, truncated, extended, or pure garbage — yields nullopt or a
// structurally valid message, never UB. CI runs this suite under
// ASan/UBSan via the `adversarial` label, which is where a lying length
// prefix or an over-read actually trips.
#include "transport/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/messages.h"

namespace mmrfd::transport {
namespace {

/// A small corpus of well-formed datagrams covering every encoder branch:
/// full and delta queries, empty and populated entry lists, single- and
/// multi-byte varints, responses with and without acks and origin
/// sequences, need_full set and clear.
std::vector<std::vector<std::uint8_t>> corpus() {
  std::vector<std::vector<std::uint8_t>> out;

  core::QueryMessage full;
  full.seq = 7;
  full.entries = {{ProcessId{1}, 10}, {ProcessId{2}, 20}, {ProcessId{3}, 5}};
  full.suspected_count = 2;
  out.push_back(encode_message(full));

  core::QueryMessage delta;
  delta.seq = 12345678901234ull;
  delta.epoch = 987654;
  delta.base_epoch = 987000;
  delta.set_delta(true);
  delta.entries = {{ProcessId{9}, 42}};
  delta.suspected_count = 0;
  out.push_back(encode_message(delta));

  core::QueryMessage empty;
  empty.seq = 1;
  out.push_back(encode_message(empty));

  // The steady-state delta: no entries, so no counts on the wire.
  core::QueryMessage steady;
  steady.seq = 130;
  steady.epoch = 40;
  steady.base_epoch = 40;
  steady.set_delta(true);
  out.push_back(encode_message(steady));

  // Multi-byte varints in every field: 2-10 byte seq, epochs and tags, and
  // id gaps of 2-5 bytes, including one that wraps mod 2^32.
  core::QueryMessage wide;
  wide.seq = (std::uint64_t{1} << 40) + 3;
  wide.epoch = 300;
  wide.base_epoch = 200;
  wide.set_delta(true);
  wide.entries = {{ProcessId{129}, 1u << 14},
                  {ProcessId{70000}, ~std::uint64_t{0}},
                  {ProcessId{0xFFFFFFFFu}, 128},
                  {ProcessId{40000}, std::uint64_t{1} << 35},
                  {ProcessId{5}, 0}};
  wide.suspected_count = 3;
  out.push_back(encode_message(wide));

  core::ResponseMessage ack;
  ack.seq = 7;
  ack.ack_epoch = 987654;
  out.push_back(encode_message(ack));

  core::ResponseMessage needy;
  needy.seq = 8;
  needy.need_full = true;
  out.push_back(encode_message(needy));

  // A live response: an ack and the responder's own round sequence.
  core::ResponseMessage live;
  live.seq = 200;
  live.ack_epoch = 41;
  live.origin_seq = 199;
  out.push_back(encode_message(live));

  return out;
}

/// Structural invariants any *accepted* datagram must satisfy — the
/// properties the detector core relies on without re-checking.
void check_accepted(const WireMessage& message) {
  if (const auto* q = std::get_if<core::QueryMessage>(&message)) {
    ASSERT_LE(q->suspected_count, q->entries.size());
    if (q->is_delta()) {
      // A delta promises a base; the epoch flag is canonical.
      EXPECT_NE(q->epoch, 0u);
    }
  }
}

TEST(CodecCorpus, EveryStrictPrefixIsRejected) {
  // Truncation at *every* byte boundary: each message type ends with a
  // required field, so no strict prefix can parse as complete (exhausted()
  // is part of acceptance).
  for (const auto& datagram : corpus()) {
    for (std::size_t len = 0; len < datagram.size(); ++len) {
      const auto message = decode_message(
          std::span<const std::uint8_t>(datagram.data(), len));
      EXPECT_FALSE(message.has_value()) << "prefix of length " << len;
    }
  }
}

TEST(CodecCorpus, TrailingGarbageIsRejected) {
  for (auto datagram : corpus()) {
    datagram.push_back(0);
    EXPECT_FALSE(decode_message(datagram).has_value());
  }
}

TEST(CodecCorpus, BitFlippedCorpusNeverTripsTheDecoder) {
  // 20k mutated datagrams: 1-8 random byte XORs against a valid datagram.
  // Some decode (a flipped tag byte is indistinguishable from a different
  // valid message) — those must still satisfy the structural invariants.
  Xoshiro256 rng(0xC0DEC);
  const auto base = corpus();
  std::uint64_t accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    auto datagram = base[rng.next_below(base.size())];
    const std::uint64_t flips = 1 + rng.next_below(8);
    for (std::uint64_t i = 0; i < flips; ++i) {
      const std::uint64_t draw = rng.next();
      datagram[draw % datagram.size()] ^=
          static_cast<std::uint8_t>((draw >> 32) | 1);
    }
    const auto message = decode_message(datagram);
    if (message) {
      ++accepted;
      check_accepted(*message);
    }
  }
  // The corpus is tiny relative to the format space, but flips that only
  // touch value bytes (tags, seqs) stay decodable — expect a healthy mix.
  EXPECT_GT(accepted, 100u);
}

TEST(CodecCorpus, RandomGarbageNeverTripsTheDecoder) {
  Xoshiro256 rng(0xBADBEEF);
  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<std::uint8_t> garbage(rng.next_below(128));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    const auto message = decode_message(garbage);
    if (message) check_accepted(*message);
  }
}

TEST(CodecCorpus, LyingEntryCountIsRejectedWithoutAllocating) {
  // Regression for decode_query's entry-count bound: a total claiming more
  // entries than the *remaining* bytes can hold (each takes at least 2)
  // must be rejected before reserve() is driven by it. Unbounded, these
  // totals would ask for 64 GiB and more than max_size().
  const auto query = [](std::uint64_t total, std::size_t entry_bytes) {
    Encoder e;
    e.u8(4);       // flags: query with entries
    e.uvarint(1);  // seq
    e.uvarint(0);  // suspected_count
    e.uvarint(total);
    for (std::size_t i = 0; i < entry_bytes; ++i) e.u8(1);
    return e.take();
  };
  for (const std::uint64_t total : {std::uint64_t{0xFFFFFFFFu},
                                    ~std::uint64_t{0}}) {
    const auto buf = query(total, 64);
    Decoder d(buf);
    EXPECT_FALSE(decode_query(d).has_value()) << total;
  }

  // Borderline: a total consistent with the whole buffer, header included,
  // but not with the bytes after the cursor (4 header bytes + 7 entry
  // bytes would hold 5 entries; the 7 alone hold 3).
  const auto buf = query(5, 7);
  ASSERT_EQ(buf.size() / 2, 5u);
  Decoder d(buf);
  EXPECT_FALSE(decode_query(d).has_value());
}

TEST(CodecCorpus, OversizedVarintIsRejected) {
  // An 11-byte varint (or a 10th byte carrying more than the final bit)
  // would shift past 63 — the decoder must refuse, not UB-shift.
  std::vector<std::uint8_t> buf(11, 0x80);
  buf.back() = 0x01;
  Decoder d(buf);
  EXPECT_FALSE(d.uvarint().has_value());

  std::vector<std::uint8_t> high(10, 0x80);
  high.back() = 0x7F;  // 10th byte may only contribute one bit
  Decoder d2(high);
  EXPECT_FALSE(d2.uvarint().has_value());
}

TEST(CodecCorpus, ValidDatagramsRoundTrip) {
  for (const auto& datagram : corpus()) {
    const auto message = decode_message(datagram);
    ASSERT_TRUE(message.has_value());
    // Canonical re-encode: decode(encode(decode(x))) == decode(x) and the
    // bytes match — the corpus is minimally encoded.
    EXPECT_EQ(encode_message(*message), datagram);
    EXPECT_EQ(std::visit([](const auto& m) { return wire_size(m); }, *message),
              datagram.size());
  }
}

}  // namespace
}  // namespace mmrfd::transport
