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

TEST(Codec, MessageRoundTripQuery) {
  const auto datagram = encode_message(sample_query());
  const auto out = decode_message(datagram);
  ASSERT_TRUE(out.has_value());
  ASSERT_TRUE(std::holds_alternative<core::QueryMessage>(*out));
  EXPECT_EQ(std::get<core::QueryMessage>(*out), sample_query());
}

TEST(Codec, MessageRoundTripResponse) {
  const auto datagram = encode_message(core::ResponseMessage{5});
  const auto out = decode_message(datagram);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(std::get<core::ResponseMessage>(*out).seq, 5u);
}

TEST(Codec, WireSizeMatchesEncodedSize) {
  const auto q = sample_query();
  EXPECT_EQ(encode_message(q).size(), wire_size(q));
  const core::ResponseMessage r{1};
  EXPECT_EQ(encode_message(r).size(), wire_size(r));
}

TEST(Codec, EncodeWritesTheWholeDatagram) {
  // encode() and encode_message() produce the same bytes: a message is its
  // datagram, with no framing around it.
  for (const WireMessage& m :
       {WireMessage{sample_query()}, WireMessage{core::ResponseMessage{3}}}) {
    Encoder e;
    std::visit([&e](const auto& msg) { encode(e, msg); }, m);
    EXPECT_EQ(e.take(), encode_message(m));
  }
}

TEST(Codec, QueryLayoutIsPinned) {
  // [u8 flags][uvarint seq][uvarint suspected_count][uvarint total] then
  // (id gap, tag) pairs; the mistakes section's ids restart from 0. The
  // sender is not on the wire.
  const std::vector<std::uint8_t> expected = {
      0x04,                                            // flags: has entries
      0x88, 0xef, 0x99, 0xab, 0xc5, 0xe8, 0x8c, 0x91,  // seq 0x1122...88
      0x11,                                            //   (9 bytes)
      0x02, 0x03,                                      // 2 suspected of 3
      0x01, 0x07,                                      // p1, tag 7
      0x02, 0x63,                                      // p3 (1 + 2), tag 99
      0x02, 0x32};                                     // mistake p2, tag 50
  EXPECT_EQ(encode_message(sample_query()), expected);
  EXPECT_EQ(wire_size(sample_query()), expected.size());
}

TEST(Codec, ResponseLayoutIsPinned) {
  // [u8 flags: type bit 0x80 | has-origin 4 | has-ack 2 | need-full 1]
  // [uvarint seq][uvarint ack_epoch][uvarint origin_seq]
  core::ResponseMessage r;
  r.seq = 5;
  r.ack_epoch = 300;
  r.origin_seq = 9;
  r.need_full = true;
  const std::vector<std::uint8_t> expected = {0x87, 0x05, 0xac, 0x02, 0x09};
  EXPECT_EQ(encode_message(r), expected);
  EXPECT_EQ(wire_size(r), expected.size());
  // The steady-state response: a type bit and a 1-byte seq.
  EXPECT_EQ(encode_message(core::ResponseMessage{7}),
            (std::vector<std::uint8_t>{0x80, 0x07}));
}

TEST(Codec, QueryWithoutEntriesOmitsItsCounts) {
  // A query with no entries leaves the has-entries bit clear and carries no
  // counts: flags + seq.
  core::QueryMessage q;
  q.seq = 1;
  EXPECT_EQ(encode_message(q), (std::vector<std::uint8_t>{0x00, 0x01}));
  EXPECT_EQ(wire_size(q), 2u);
}

TEST(Codec, HasEntriesBitWithZeroCountsRejected) {
  // Not canonical: a query with no entries is written without the bit, so
  // the bit with a total of 0 can only be a damaged or forged datagram.
  const auto query = [](std::uint8_t flags, bool counts) {
    Encoder e;
    e.u8(flags);
    e.uvarint(1);                        // seq
    if ((flags & 2) != 0) e.uvarint(5);  // epoch
    if ((flags & 1) != 0) e.uvarint(5);  // base_epoch
    if (counts) {
      e.uvarint(0);  // suspected_count
      e.uvarint(0);  // total
    }
    return e.take();
  };
  for (const std::uint8_t flags : {0, 2, 3}) {  // full, epoch, delta
    const auto flagged = static_cast<std::uint8_t>(flags | 4);
    EXPECT_FALSE(decode_message(query(flagged, true)).has_value())
        << int{flags};
    // The same query written canonically: the bit clear, no counts.
    const auto canonical = query(flags, false);
    const auto out = decode_message(canonical);
    ASSERT_TRUE(out.has_value()) << int{flags};
    EXPECT_TRUE(std::get<core::QueryMessage>(*out).entries.empty());
    EXPECT_EQ(encode_message(*out), canonical);
  }
}

TEST(Codec, EveryFirstByteDecodesExactlyWhenItIsAFlagCombination) {
  // All 256 first bytes, each followed by the fields its bits call for
  // (seq 1, then epoch / base / one entry for a query, ack / origin for a
  // response). The top bit is the type; a query takes delta 1, epoch 2 and
  // has-entries 4, but delta only with an epoch; a response takes
  // need-full 1, ack 2 and origin 4. Every other bit is refused.
  std::size_t accepted = 0;
  for (unsigned b = 0; b < 256; ++b) {
    const auto first = static_cast<std::uint8_t>(b);
    const bool response = (first & 0x80) != 0;
    Encoder e;
    e.u8(first);
    e.uvarint(1);  // seq
    if (!response) {
      if ((first & 2) != 0) e.uvarint(9);  // epoch
      if ((first & 1) != 0) e.uvarint(8);  // base_epoch
      if ((first & 4) != 0) {              // one suspicion: p3, tag 7
        e.uvarint(1);
        e.uvarint(1);
        e.uvarint(3);
        e.uvarint(7);
      }
    } else {
      if ((first & 2) != 0) e.uvarint(9);  // ack_epoch
      if ((first & 4) != 0) e.uvarint(6);  // origin_seq
    }
    const auto bytes = e.take();
    const bool valid =
        response ? (first & 0x78) == 0
                 : (first & 0xF8) == 0 && ((first & 1) == 0 || (first & 2) != 0);
    const auto out = decode_message(bytes);
    ASSERT_EQ(out.has_value(), valid) << "first byte " << b;
    if (!out) continue;
    ++accepted;
    EXPECT_EQ(std::holds_alternative<core::ResponseMessage>(*out), response)
        << "first byte " << b;
    // Canonical: what decodes re-encodes to the same bytes.
    EXPECT_EQ(encode_message(*out), bytes) << "first byte " << b;
  }
  EXPECT_EQ(accepted, 6u + 8u);  // queries {0,2,3,4,6,7}, 8 responses
}

TEST(Codec, DecodersRefuseTheOtherType) {
  const auto query = encode_message(sample_query());
  const auto response = encode_message(core::ResponseMessage{2});
  Decoder as_response(query);
  EXPECT_FALSE(decode_response(as_response).has_value());
  Decoder as_query(response);
  EXPECT_FALSE(decode_query(as_query).has_value());
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
  const auto datagram = encode_message(q);
  EXPECT_EQ(datagram.size(), wire_size(q));
  const auto out = decode_message(datagram);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(std::get<core::QueryMessage>(*out), q);

  core::ResponseMessage r;
  r.seq = kMax;
  r.ack_epoch = kMax;
  r.origin_seq = kMax;
  r.need_full = true;
  const auto response = encode_message(r);
  EXPECT_EQ(response.size(), wire_size(r));
  const auto back = decode_message(response);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<core::ResponseMessage>(*back), r);
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
  const auto datagram = encode_message(q);
  EXPECT_EQ(datagram.size(), wire_size(q));
  const auto out = decode_message(datagram);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(std::get<core::QueryMessage>(*out), q);
}

TEST(Codec, GapAboveTheIdRangeRejected) {
  const auto datagram = [](std::uint64_t gap) {
    Encoder e;
    e.u8(4);       // flags: query with entries
    e.uvarint(1);  // seq
    e.uvarint(1);  // one suspected
    e.uvarint(1);  // of one entry
    e.uvarint(gap);
    e.uvarint(1);  // tag
    return e.take();
  };
  EXPECT_TRUE(decode_message(datagram(0xFFFFFFFFu)).has_value());
  EXPECT_FALSE(decode_message(datagram(0x100000000u)).has_value());
  EXPECT_FALSE(decode_message(datagram(~std::uint64_t{0})).has_value());
}

TEST(Codec, EntryCountAboveHalfTheRemainingBytesRejected) {
  // Every entry takes at least 2 bytes: total = 3 needs 6 of them.
  const auto datagram = [](std::size_t entry_bytes) {
    Encoder e;
    e.u8(4);       // flags: query with entries
    e.uvarint(1);  // seq
    e.uvarint(0);  // no suspicions
    e.uvarint(3);  // three mistakes
    for (std::size_t i = 0; i < entry_bytes; ++i) e.u8(1);
    return e.take();
  };
  EXPECT_FALSE(decode_message(datagram(5)).has_value());
  const auto out = decode_message(datagram(6));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(std::get<core::QueryMessage>(*out).mistakes().size(), 3u);
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
    EXPECT_EQ(encode_message(q).size(), wire_size(q));
    EXPECT_LE(wire_size(q), max_query_wire_size(n)) << "n=" << n;
    // Every entry and header field is at its maximum: the bound is tight.
    EXPECT_EQ(wire_size(q), max_query_wire_size(n)) << "n=" << n;
  }
}

TEST(Codec, TruncatedInputRejected) {
  // Every strict prefix of every shape: with entries, without (the last
  // field is then seq, epoch or base), and both response shapes.
  core::QueryMessage bare;
  bare.seq = 300;
  core::ResponseMessage acked;
  acked.seq = 4;
  acked.ack_epoch = 1u << 14;
  for (const WireMessage& m :
       {WireMessage{sample_query()}, WireMessage{bare},
        WireMessage{core::ResponseMessage{200}}, WireMessage{acked}}) {
    const auto datagram = encode_message(m);
    ASSERT_TRUE(decode_message(datagram).has_value());
    for (std::size_t cut = 0; cut < datagram.size(); ++cut) {
      const std::span<const std::uint8_t> prefix(datagram.data(), cut);
      EXPECT_FALSE(decode_message(prefix).has_value()) << "cut at " << cut;
    }
  }
}

TEST(Codec, TrailingGarbageRejected) {
  auto datagram = encode_message(core::ResponseMessage{1});
  datagram.push_back(0xFF);
  EXPECT_FALSE(decode_message(datagram).has_value());
}

TEST(Codec, LyingLengthPrefixRejected) {
  Encoder e;
  e.u8(4);                // flags: query with entries
  e.uvarint(1);           // seq
  e.uvarint(0);           // suspected_count
  e.uvarint(0xFFFFFFFF);  // total: claims 4 billion entries
  const auto bytes = e.take();
  EXPECT_FALSE(decode_message(bytes).has_value());
}

TEST(Codec, FuzzRandomBytesNeverCrash) {
  Xoshiro256 rng(1234);
  for (int i = 0; i < 20000; ++i) {
    std::vector<std::uint8_t> junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    (void)decode_message(junk);  // must not crash / UB; result irrelevant
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
  const auto out = decode_message(encode_message(sample_delta()));
  ASSERT_TRUE(out.has_value());
  const auto& q = std::get<core::QueryMessage>(*out);
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
  const auto datagram = encode_message(q);
  EXPECT_EQ(datagram.size(), wire_size(q));
  const auto out = decode_message(datagram);
  ASSERT_TRUE(out.has_value());
  const auto& back = std::get<core::QueryMessage>(*out);
  EXPECT_EQ(back, q);
  EXPECT_TRUE(back.is_delta());
  EXPECT_TRUE(back.suspected().empty());
  EXPECT_TRUE(back.mistakes().empty());
  // Compactness: flags 1 + three 1-byte varints (seq, epoch, base) = 4
  // bytes, independent of how large the interned set is; no sender and no
  // counts.
  EXPECT_EQ(datagram.size(), 4u);
}

TEST(Codec, ResponseAckRoundTrip) {
  core::ResponseMessage r;
  r.seq = 9;
  r.ack_epoch = 1u << 20;  // 3-byte varint
  r.need_full = true;
  const auto datagram = encode_message(r);
  EXPECT_EQ(datagram.size(), wire_size(r));
  const auto out = decode_message(datagram);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(std::get<core::ResponseMessage>(*out), r);
}

TEST(Codec, WireSizeMatchesEncodedSizeForDeltaForms) {
  for (const auto& q : {sample_delta(), sample_query()}) {
    EXPECT_EQ(encode_message(q).size(), wire_size(q));
  }
  core::ResponseMessage ack;
  ack.seq = 1;
  ack.ack_epoch = 1;
  EXPECT_EQ(encode_message(ack).size(), wire_size(ack));
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
  core::QueryMessage empty_delta = sample_delta();
  empty_delta.entries.clear();
  empty_delta.suspected_count = 0;
  for (const auto& q : {sample_delta(), empty_delta}) {
    const auto datagram = encode_message(q);
    for (std::size_t cut = 0; cut < datagram.size(); ++cut) {
      const std::span<const std::uint8_t> prefix(datagram.data(), cut);
      EXPECT_FALSE(decode_message(prefix).has_value()) << "cut at " << cut;
    }
  }
}

TEST(Codec, LyingSuspectedSplitRejected) {
  // suspected_count claiming more entries than the list carries is a
  // malformed datagram, not a 0-length mistakes span.
  core::QueryMessage q;
  q.seq = 1;
  q.push_suspected({ProcessId{2}, 3});
  Encoder e;
  e.u8(4);  // flags: query with entries
  e.uvarint(q.seq);
  e.uvarint(5);  // claims 5 suspected...
  e.uvarint(1);  // ...but carries 1 entry
  e.uvarint(q.entries[0].id.value);
  e.uvarint(q.entries[0].tag);
  const auto bytes = e.take();
  EXPECT_FALSE(decode_message(bytes).has_value());
  // The same datagram with an honest split decodes to q.
  auto honest = bytes;
  honest[2] = 1;
  const auto out = decode_message(honest);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(std::get<core::QueryMessage>(*out), q);
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
    const auto datagram = encode_message(q);
    EXPECT_EQ(datagram.size(), wire_size(q));
    const auto out = decode_message(datagram);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(std::get<core::QueryMessage>(*out), q);
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
    const auto out = decode_message(encode_message(q));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(std::get<core::QueryMessage>(*out), q);
  }
}

}  // namespace
}  // namespace mmrfd::transport
