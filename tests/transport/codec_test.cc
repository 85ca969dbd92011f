#include "transport/codec.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace mmrfd::transport {
namespace {

core::QueryMessage sample_query() {
  core::QueryMessage q;
  q.seq = 0x1122334455667788ULL;
  q.push_suspected({ProcessId{1}, 7});
  q.push_suspected({ProcessId{3}, 99});
  q.push_mistake({ProcessId{2}, 50});
  return q;
}

TEST(Codec, QueryRoundTrip) {
  Encoder e;
  encode(e, sample_query());
  const auto bytes = e.take();
  Decoder d(bytes);
  const auto out = decode_query(d);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, sample_query());
  EXPECT_TRUE(d.exhausted());
}

TEST(Codec, ResponseRoundTrip) {
  Encoder e;
  encode(e, core::ResponseMessage{42});
  const auto bytes = e.take();
  Decoder d(bytes);
  const auto out = decode_response(d);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->seq, 42u);
}

TEST(Codec, EmptySetsRoundTrip) {
  core::QueryMessage q;
  q.seq = 1;
  Encoder e;
  encode(e, q);
  const auto bytes = e.take();
  Decoder d(bytes);
  const auto out = decode_query(d);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->suspected().empty());
  EXPECT_TRUE(out->mistakes().empty());
}

TEST(Codec, EnvelopeRoundTripQuery) {
  const auto datagram = encode_envelope(ProcessId{9}, sample_query());
  const auto out = decode_envelope(datagram);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->sender, ProcessId{9});
  ASSERT_TRUE(std::holds_alternative<core::QueryMessage>(out->message));
  EXPECT_EQ(std::get<core::QueryMessage>(out->message), sample_query());
}

TEST(Codec, EnvelopeRoundTripResponse) {
  const auto datagram =
      encode_envelope(ProcessId{2}, core::ResponseMessage{5});
  const auto out = decode_envelope(datagram);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(std::get<core::ResponseMessage>(out->message).seq, 5u);
}

TEST(Codec, WireSizeMatchesEncodedSize) {
  const auto q = sample_query();
  EXPECT_EQ(encode_envelope(ProcessId{0}, q).size(), wire_size(q));
  const core::ResponseMessage r{1};
  EXPECT_EQ(encode_envelope(ProcessId{0}, r).size(), wire_size(r));
}

TEST(Codec, QueryLayoutIsPinned) {
  // [u32 sender][u8 type][uvarint seq][u8 flags][uvarint suspected_count]
  // [uvarint total] then (id gap, tag) pairs; the mistakes section's ids
  // restart from 0.
  const std::vector<std::uint8_t> expected = {
      0x09, 0x00, 0x00, 0x00, 0x01,                    // sender 9, query
      0x88, 0xef, 0x99, 0xab, 0xc5, 0xe8, 0x8c, 0x91,  // seq 0x1122...88
      0x11,                                            //   (9 bytes)
      0x00,                                            // flags: full
      0x02, 0x03,                                      // 2 suspected of 3
      0x01, 0x07,                                      // p1, tag 7
      0x02, 0x63,                                      // p3 (1 + 2), tag 99
      0x02, 0x32};                                     // mistake p2, tag 50
  EXPECT_EQ(encode_envelope(ProcessId{9}, sample_query()), expected);
  EXPECT_EQ(wire_size(sample_query()), expected.size());
}

TEST(Codec, ExtremeValuesRoundTripAtTheirWireSize) {
  constexpr std::uint32_t kMaxId = 0xFFFFFFFFu;
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  core::QueryMessage q;
  q.seq = kMax;
  q.epoch = kMax;
  q.base_epoch = kMax;
  q.set_delta(true);
  q.push_suspected({ProcessId{0}, kMax});
  q.push_suspected({ProcessId{kMaxId}, 0});
  q.push_mistake({ProcessId{kMaxId}, kMax});
  q.push_mistake({ProcessId{0}, 0});  // a gap that wraps mod 2^32
  const auto datagram = encode_envelope(ProcessId{kMaxId}, q);
  EXPECT_EQ(datagram.size(), wire_size(q));
  const auto out = decode_envelope(datagram);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->sender, ProcessId{kMaxId});
  EXPECT_EQ(std::get<core::QueryMessage>(out->message), q);

  core::ResponseMessage r;
  r.seq = kMax;
  r.ack_epoch = kMax;
  r.origin_seq = kMax;
  r.need_full = true;
  const auto response = encode_envelope(ProcessId{0}, r);
  EXPECT_EQ(response.size(), wire_size(r));
  const auto back = decode_envelope(response);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<core::ResponseMessage>(back->message), r);
}

TEST(Codec, UnsortedIdsRoundTripExactly) {
  // The cores send sorted sets, but the gap coding must not rely on it:
  // descending ids, repeats, and a mistakes section whose first id lies
  // below the last suspected id all come back in their order.
  core::QueryMessage q;
  q.seq = 3;
  q.push_suspected({ProcessId{900}, 4});
  q.push_suspected({ProcessId{17}, 5});
  q.push_suspected({ProcessId{17}, 6});
  q.push_suspected({ProcessId{999}, 7});
  q.push_mistake({ProcessId{2}, 8});
  q.push_mistake({ProcessId{1}, 9});
  const auto datagram = encode_envelope(ProcessId{1}, q);
  EXPECT_EQ(datagram.size(), wire_size(q));
  const auto out = decode_envelope(datagram);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(std::get<core::QueryMessage>(out->message), q);
}

TEST(Codec, GapAboveTheIdRangeRejected) {
  const auto datagram = [](std::uint64_t gap) {
    Encoder e;
    e.u32(0);  // sender
    e.u8(1);   // query
    e.uvarint(1);  // seq
    e.u8(0);       // flags
    e.uvarint(1);  // one suspected
    e.uvarint(1);  // of one entry
    e.uvarint(gap);
    e.uvarint(1);  // tag
    return e.take();
  };
  EXPECT_TRUE(decode_envelope(datagram(0xFFFFFFFFu)).has_value());
  EXPECT_FALSE(decode_envelope(datagram(0x100000000u)).has_value());
  EXPECT_FALSE(decode_envelope(datagram(~std::uint64_t{0})).has_value());
}

TEST(Codec, EntryCountAboveHalfTheRemainingBytesRejected) {
  // Every entry takes at least 2 bytes: total = 3 needs 6 of them.
  const auto datagram = [](std::size_t entry_bytes) {
    Encoder e;
    e.u32(0);      // sender
    e.u8(1);       // query
    e.uvarint(1);  // seq
    e.u8(0);       // flags
    e.uvarint(0);  // no suspicions
    e.uvarint(3);  // three mistakes
    for (std::size_t i = 0; i < entry_bytes; ++i) e.u8(1);
    return e.take();
  };
  EXPECT_FALSE(decode_envelope(datagram(5)).has_value());
  const auto out = decode_envelope(datagram(6));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(std::get<core::QueryMessage>(out->message).mistakes().size(), 3u);
}

TEST(Codec, LargestQueryFitsTheDatagramBound) {
  // 2n entries at their worst case: 5-byte gaps (each id 0x90000000 past
  // the last, mod 2^32) and 10-byte tags, under maximal seq and epochs.
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  for (const std::uint32_t n : {1u, 16u, 1000u}) {
    core::QueryMessage q;
    q.seq = kMax;
    q.epoch = kMax;
    q.base_epoch = kMax;
    q.set_delta(true);
    for (std::uint32_t i = 1; i <= 2 * n; ++i) {
      q.push_suspected({ProcessId{i * 0x90000000u}, kMax});
    }
    EXPECT_EQ(encode_envelope(ProcessId{0}, q).size(), wire_size(q));
    EXPECT_LE(wire_size(q), max_query_wire_size(n)) << "n=" << n;
    // Every entry and header field is at its maximum: the bound is tight.
    EXPECT_EQ(wire_size(q), max_query_wire_size(n)) << "n=" << n;
  }
}

TEST(Codec, TruncatedInputRejected) {
  const auto datagram = encode_envelope(ProcessId{0}, sample_query());
  for (std::size_t cut = 0; cut < datagram.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(datagram.data(), cut);
    EXPECT_FALSE(decode_envelope(prefix).has_value()) << "cut at " << cut;
  }
}

TEST(Codec, TrailingGarbageRejected) {
  auto datagram = encode_envelope(ProcessId{0}, core::ResponseMessage{1});
  datagram.push_back(0xFF);
  EXPECT_FALSE(decode_envelope(datagram).has_value());
}

TEST(Codec, UnknownTypeRejected) {
  std::vector<std::uint8_t> datagram = {0, 0, 0, 0, /*type=*/200, 1, 2, 3};
  EXPECT_FALSE(decode_envelope(datagram).has_value());
}

TEST(Codec, LyingLengthPrefixRejected) {
  Encoder e;
  e.u32(0);               // sender
  e.u8(1);                // query
  e.uvarint(1);           // seq
  e.u8(0);                // flags
  e.uvarint(0);           // suspected_count
  e.uvarint(0xFFFFFFFF);  // total: claims 4 billion entries
  const auto bytes = e.take();
  EXPECT_FALSE(decode_envelope(bytes).has_value());
}

TEST(Codec, FuzzRandomBytesNeverCrash) {
  Xoshiro256 rng(1234);
  for (int i = 0; i < 20000; ++i) {
    std::vector<std::uint8_t> junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    (void)decode_envelope(junk);  // must not crash / UB; result irrelevant
  }
}

core::QueryMessage sample_delta() {
  core::QueryMessage q;
  q.seq = 42;
  q.epoch = 900;
  q.base_epoch = 123;
  q.set_delta(true);
  q.push_suspected({ProcessId{7}, 11});
  q.push_mistake({ProcessId{1}, 12});
  return q;
}

TEST(Codec, DeltaQueryRoundTrip) {
  const auto out = decode_envelope(encode_envelope(ProcessId{3}, sample_delta()));
  ASSERT_TRUE(out.has_value());
  const auto& q = std::get<core::QueryMessage>(out->message);
  EXPECT_EQ(q, sample_delta());
  EXPECT_TRUE(q.is_delta());
  EXPECT_EQ(q.epoch, 900u);
  EXPECT_EQ(q.base_epoch, 123u);
}

TEST(Codec, EmptyDeltaRoundTrip) {
  // The steady-state message: the whole stable suspected set interned as
  // one base-epoch integer, zero entries on the wire.
  core::QueryMessage q;
  q.seq = 7;
  q.epoch = 55;
  q.base_epoch = 55;
  q.set_delta(true);
  const auto datagram = encode_envelope(ProcessId{0}, q);
  EXPECT_EQ(datagram.size(), wire_size(q));
  const auto out = decode_envelope(datagram);
  ASSERT_TRUE(out.has_value());
  const auto& back = std::get<core::QueryMessage>(out->message);
  EXPECT_EQ(back, q);
  EXPECT_TRUE(back.is_delta());
  EXPECT_TRUE(back.suspected().empty());
  EXPECT_TRUE(back.mistakes().empty());
  // Compactness: envelope 5 + flags 1 + five 1-byte varints (seq, epoch,
  // base, both counts) = 11 bytes, independent of how large the interned
  // set is.
  EXPECT_EQ(datagram.size(), 11u);
}

TEST(Codec, ResponseAckRoundTrip) {
  core::ResponseMessage r;
  r.seq = 9;
  r.ack_epoch = 1u << 20;  // 3-byte varint
  r.need_full = true;
  const auto datagram = encode_envelope(ProcessId{4}, r);
  EXPECT_EQ(datagram.size(), wire_size(r));
  const auto out = decode_envelope(datagram);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(std::get<core::ResponseMessage>(out->message), r);
}

TEST(Codec, WireSizeMatchesEncodedSizeForDeltaForms) {
  for (const auto& q : {sample_delta(), sample_query()}) {
    EXPECT_EQ(encode_envelope(ProcessId{0}, q).size(), wire_size(q));
  }
  core::ResponseMessage ack;
  ack.seq = 1;
  ack.ack_epoch = 1;
  EXPECT_EQ(encode_envelope(ProcessId{0}, ack).size(), wire_size(ack));
}

TEST(Codec, UvarintEdgeValues) {
  std::vector<std::uint64_t> values = {0, 127, 128, 16383, 16384};
  for (int bits = 0; bits < 64; ++bits) {  // every encoded length's edges
    const std::uint64_t top = std::uint64_t{1} << bits;
    values.insert(values.end(), {top, top - 1, top | (top - 1)});
  }
  for (const std::uint64_t v : values) {
    Encoder e;
    e.uvarint(v);
    const auto bytes = e.take();
    EXPECT_EQ(bytes.size(), uvarint_size(v));
    Decoder d(bytes);
    const auto back = d.uvarint();
    ASSERT_TRUE(back.has_value()) << v;
    EXPECT_EQ(*back, v);
    EXPECT_TRUE(d.exhausted());
  }
}

TEST(Codec, UvarintOverlongRejected) {
  // 11 continuation bytes can encode nothing a u64 holds.
  std::vector<std::uint8_t> junk(11, 0xFF);
  Decoder d(junk);
  EXPECT_FALSE(d.uvarint().has_value());
  // A 10th byte carrying more than the final bit overflows u64.
  std::vector<std::uint8_t> overflow(9, 0x80);
  overflow.push_back(0x02);
  Decoder d2(overflow);
  EXPECT_FALSE(d2.uvarint().has_value());
}

TEST(Codec, TruncatedDeltaRejected) {
  const auto datagram = encode_envelope(ProcessId{0}, sample_delta());
  for (std::size_t cut = 0; cut < datagram.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(datagram.data(), cut);
    EXPECT_FALSE(decode_envelope(prefix).has_value()) << "cut at " << cut;
  }
}

TEST(Codec, LyingSuspectedSplitRejected) {
  // suspected_count claiming more entries than the list carries is a
  // malformed datagram, not a 0-length mistakes span.
  core::QueryMessage q;
  q.seq = 1;
  q.push_suspected({ProcessId{2}, 3});
  Encoder e;
  e.u32(0);  // sender
  e.u8(1);   // query
  e.uvarint(q.seq);
  e.u8(0);       // flags
  e.uvarint(5);  // claims 5 suspected...
  e.uvarint(1);  // ...but carries 1 entry
  e.uvarint(q.entries[0].id.value);
  e.uvarint(q.entries[0].tag);
  const auto bytes = e.take();
  EXPECT_FALSE(decode_envelope(bytes).has_value());
  // The same datagram with an honest split decodes to q.
  auto honest = bytes;
  honest[7] = 1;
  const auto out = decode_envelope(honest);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(std::get<core::QueryMessage>(out->message), q);
}

TEST(Codec, FuzzRoundTripRandomDeltas) {
  Xoshiro256 rng(2077);
  for (int i = 0; i < 500; ++i) {
    core::QueryMessage q;
    q.seq = rng.next();
    q.epoch = rng.next_below(1u << 30);
    if (rng.bernoulli(0.7)) {
      q.set_delta(true);
      q.base_epoch = rng.next_below(q.epoch + 1);
    }
    const auto ns = rng.next_below(6);
    for (std::uint64_t k = 0; k < ns; ++k) {
      q.push_suspected(
          {ProcessId{static_cast<std::uint32_t>(rng.next_below(1000))},
           rng.next()});
    }
    const auto nm = rng.next_below(6);
    for (std::uint64_t k = 0; k < nm; ++k) {
      q.push_mistake(
          {ProcessId{static_cast<std::uint32_t>(rng.next_below(1000))},
           rng.next()});
    }
    const auto datagram = encode_envelope(ProcessId{1}, q);
    EXPECT_EQ(datagram.size(), wire_size(q));
    const auto out = decode_envelope(datagram);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(std::get<core::QueryMessage>(out->message), q);
  }
}

TEST(Codec, FuzzRoundTripRandomQueries) {
  Xoshiro256 rng(77);
  for (int i = 0; i < 500; ++i) {
    core::QueryMessage q;
    q.seq = rng.next();
    const auto ns = rng.next_below(20);
    for (std::uint64_t k = 0; k < ns; ++k) {
      q.push_suspected(
          {ProcessId{static_cast<std::uint32_t>(rng.next_below(1000))},
           rng.next()});
    }
    const auto nm = rng.next_below(20);
    for (std::uint64_t k = 0; k < nm; ++k) {
      q.push_mistake(
          {ProcessId{static_cast<std::uint32_t>(rng.next_below(1000))},
           rng.next()});
    }
    const auto out = decode_envelope(encode_envelope(ProcessId{1}, q));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(std::get<core::QueryMessage>(out->message), q);
  }
}

}  // namespace
}  // namespace mmrfd::transport
