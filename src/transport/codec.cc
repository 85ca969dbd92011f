#include "transport/codec.h"

#include <algorithm>
#include <limits>

namespace mmrfd::transport {

namespace {
// The flags byte's top bit is the message type.
constexpr std::uint8_t kTypeResponse = 0x80;

// Query flags.
constexpr std::uint8_t kQueryDelta = 1;       // == QueryMessage::kDeltaFlag
constexpr std::uint8_t kQueryHasEpoch = 2;    // epoch field present (nonzero)
constexpr std::uint8_t kQueryHasEntries = 4;  // counts and entries present

// Response flags.
constexpr std::uint8_t kRespNeedFull = 1;
constexpr std::uint8_t kRespHasAck = 2;    // ack_epoch field present (nonzero)
constexpr std::uint8_t kRespHasOrigin = 4;  // origin_seq field present (nonzero)

constexpr std::size_t kMaxVarint = uvarint_size(~std::uint64_t{0});
constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

/// Calls fn(id_gap, tag) for every entry of `m` in order: each id's gap
/// from the previous id of its section, the first of each coded against 0.
template <typename Fn>
void for_each_gap(const core::QueryMessage& m, Fn&& fn) {
  const auto section = [&fn](const TaggedEntry* e, const TaggedEntry* end) {
    std::uint32_t prev = 0;
    for (; e != end; ++e) {
      fn(e->id.value - prev, e->tag);  // unsigned: wraps mod 2^32
      prev = e->id.value;
    }
  };
  const TaggedEntry* begin = m.entries.data();
  const TaggedEntry* split =
      begin + std::min<std::size_t>(m.suspected_count, m.entries.size());
  section(begin, split);
  section(split, begin + m.entries.size());
}
}  // namespace

void Encoder::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Encoder::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Encoder::uvarint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

std::optional<std::uint8_t> Decoder::u8() {
  if (pos_ + 1 > data_.size()) return std::nullopt;
  return data_[pos_++];
}

std::optional<std::uint32_t> Decoder::u32() {
  if (pos_ + 4 > data_.size()) return std::nullopt;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

std::optional<std::uint64_t> Decoder::u64() {
  if (pos_ + 8 > data_.size()) return std::nullopt;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

std::optional<std::uint64_t> Decoder::uvarint() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos_ >= data_.size()) return std::nullopt;
    const std::uint8_t byte = data_[pos_++];
    // The 10th byte (shift 63) may only contribute the final value bit.
    if (shift == 63 && (byte & ~std::uint8_t{1}) != 0) return std::nullopt;
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  return std::nullopt;  // unreachable: shift 63 always returns
}

void encode(Encoder& e, const core::QueryMessage& m) {
  std::uint8_t flags = 0;
  if (m.is_delta()) flags |= kQueryDelta;
  if (m.epoch != 0) flags |= kQueryHasEpoch;
  if (!m.entries.empty()) flags |= kQueryHasEntries;
  e.u8(flags);
  e.uvarint(m.seq);
  if (m.epoch != 0) e.uvarint(m.epoch);
  if (m.is_delta()) e.uvarint(m.base_epoch);
  if (m.entries.empty()) return;
  e.uvarint(m.suspected_count);
  e.uvarint(m.entries.size());
  for_each_gap(m, [&e](std::uint32_t gap, Tag tag) {
    e.uvarint(gap);
    e.uvarint(tag);
  });
}

void encode(Encoder& e, const core::ResponseMessage& m) {
  std::uint8_t flags = kTypeResponse;
  if (m.need_full) flags |= kRespNeedFull;
  if (m.ack_epoch != 0) flags |= kRespHasAck;
  if (m.origin_seq != 0) flags |= kRespHasOrigin;
  e.u8(flags);
  e.uvarint(m.seq);
  if (m.ack_epoch != 0) e.uvarint(m.ack_epoch);
  if (m.origin_seq != 0) e.uvarint(m.origin_seq);
}

std::optional<core::QueryMessage> decode_query(Decoder& d) {
  core::QueryMessage m;
  const auto flags = d.u8();
  const auto seq = d.uvarint();
  if (!flags || !seq) return std::nullopt;
  // The type bit is clear, as is every bit no query flag names.
  if ((*flags & ~(kQueryDelta | kQueryHasEpoch | kQueryHasEntries)) != 0) {
    return std::nullopt;
  }
  // A delta promises the receiver an epoch to ack; every real sender tracks
  // epochs in delta mode (epoch >= base_epoch > 0), so delta-without-epoch
  // only arises from corrupted flag bytes. Reject rather than hand the core
  // a message shape it never produces.
  if ((*flags & kQueryDelta) != 0 && (*flags & kQueryHasEpoch) == 0) {
    return std::nullopt;
  }
  m.seq = *seq;
  if ((*flags & kQueryHasEpoch) != 0) {
    const auto epoch = d.uvarint();
    if (!epoch || *epoch == 0) return std::nullopt;  // canonical: flag <=> nonzero
    m.epoch = *epoch;
  }
  if ((*flags & kQueryDelta) != 0) {
    m.set_delta(true);
    const auto base = d.uvarint();
    if (!base) return std::nullopt;
    m.base_epoch = *base;
  }
  if ((*flags & kQueryHasEntries) == 0) return m;
  const auto split = d.uvarint();
  const auto total = d.uvarint();
  if (!split || !total) return std::nullopt;
  if (*total == 0) return std::nullopt;  // canonical: flag <=> entries
  if (*split > *total || *split > kMaxU32) return std::nullopt;  // lying split
  // Every entry takes at least 2 bytes: a count the rest of the datagram
  // cannot hold is a lying prefix, rejected before it can drive reserve().
  if (*total > d.remaining() / 2) return std::nullopt;
  m.suspected_count = static_cast<std::uint32_t>(*split);
  m.entries.reserve(*total);
  std::uint32_t prev = 0;
  for (std::uint64_t i = 0; i < *total; ++i) {
    if (i == *split) prev = 0;
    const auto gap = d.uvarint();
    const auto tag = d.uvarint();
    if (!gap || !tag || *gap > kMaxU32) return std::nullopt;
    prev += static_cast<std::uint32_t>(*gap);  // wraps mod 2^32
    m.entries.push_back(TaggedEntry{ProcessId{prev}, *tag});
  }
  return m;
}

std::optional<core::ResponseMessage> decode_response(Decoder& d) {
  const auto flags = d.u8();
  const auto seq = d.uvarint();
  if (!flags || !seq) return std::nullopt;
  // The type bit is set; every other bit is a response flag.
  if ((*flags & kTypeResponse) == 0 ||
      (*flags & ~(kTypeResponse | kRespNeedFull | kRespHasAck |
                  kRespHasOrigin)) != 0) {
    return std::nullopt;
  }
  core::ResponseMessage m;
  m.seq = *seq;
  m.need_full = (*flags & kRespNeedFull) != 0;
  if ((*flags & kRespHasAck) != 0) {
    const auto ack = d.uvarint();
    if (!ack || *ack == 0) return std::nullopt;
    m.ack_epoch = *ack;
  }
  if ((*flags & kRespHasOrigin) != 0) {
    const auto origin = d.uvarint();
    if (!origin || *origin == 0) return std::nullopt;  // canonical: flag <=> nonzero
    m.origin_seq = *origin;
  }
  return m;
}

std::size_t wire_size(const core::QueryMessage& m) {
  std::size_t size = 1 + uvarint_size(m.seq);  // flags + seq
  if (m.epoch != 0) size += uvarint_size(m.epoch);
  if (m.is_delta()) size += uvarint_size(m.base_epoch);
  if (m.entries.empty()) return size;
  size += uvarint_size(m.suspected_count) + uvarint_size(m.entries.size());
  for_each_gap(m, [&size](std::uint32_t gap, Tag tag) {
    size += uvarint_size(gap) + uvarint_size(tag);
  });
  return size;
}

std::size_t wire_size(const core::ResponseMessage& m) {
  return 1 + uvarint_size(m.seq) +  // flags + seq
         (m.ack_epoch != 0 ? uvarint_size(m.ack_epoch) : 0) +
         (m.origin_seq != 0 ? uvarint_size(m.origin_seq) : 0);
}

std::size_t max_query_wire_size(std::uint32_t n) {
  const std::uint64_t entries = 2 * std::uint64_t{n};
  return 1 + 3 * kMaxVarint +         // flags, seq, epochs
         2 * uvarint_size(entries) +  // suspected_count, total
         entries * (uvarint_size(kMaxU32) + kMaxVarint);
}

std::vector<std::uint8_t> encode_message(const WireMessage& m) {
  return std::visit(
      [](const auto& msg) {
        Encoder e;
        e.reserve(wire_size(msg));
        encode(e, msg);
        return e.take();
      },
      m);
}

std::optional<WireMessage> decode_message(
    std::span<const std::uint8_t> datagram) {
  if (datagram.empty()) return std::nullopt;
  Decoder d(datagram);
  if ((datagram.front() & kTypeResponse) == 0) {
    auto q = decode_query(d);
    if (!q || !d.exhausted()) return std::nullopt;
    return WireMessage{std::move(*q)};
  }
  const auto r = decode_response(d);
  if (!r || !d.exhausted()) return std::nullopt;
  return WireMessage{*r};
}

}  // namespace mmrfd::transport
