// Compact binary wire codec.
//
// Used by the live path's one codec hop (RealTimeDetector, over UDP or
// in-memory datagrams) and by the simulator's size hook to account bytes
// on the wire for every protocol message. Every datagram is one message and nothing else: the transport
// names its sender (UdpTransport from the source port, InMemoryHub from the
// sending endpoint), so no byte of it repeats the address. A message starts
// with its flags byte, whose top bit is the type (clear: query, set:
// response); every integer after it is a LEB128 varint: 7 value bits per
// byte, the high bit marking continuation. Query:
//   [u8 flags][uvarint seq][uvarint epoch if flags&kHasEpoch]
//   [uvarint base_epoch if flags&kDelta]
//   [uvarint suspected_count][uvarint total]
//   [total x (uvarint id_gap, uvarint tag)]  (these three if flags&kHasEntries)
// A query with no entries leaves kHasEntries clear and omits both counts; a
// set kHasEntries with total 0 is not canonical and is rejected. Entries
// [0, suspected_count) are suspicions, the rest mistakes. Each id
// travels as its gap from the previous id of its section, mod 2^32; the
// first suspicion and the first mistake are coded against 0. Ids come from
// the membership {0, ..., n-1} and the cores send sorted sets, so a gap
// takes 1-2 bytes, and so does a tag (a round counter) for most of a run;
// any entry order still round-trips exactly.
// A delta query (flags & kDelta) lists only entries changed since
// base_epoch; the stable remainder of the sets travels as that one interned
// integer. Response:
//   [u8 flags][uvarint seq][uvarint ack_epoch if flags&kHasAck]
//   [uvarint origin_seq if flags&kHasOrigin]
// origin_seq is the responder's own round sequence, recorded as kPeerRound
// and read by nothing; only the live path sets it, so simulator bytes are
// unchanged.
// Decoding is total: malformed input yields nullopt, never UB.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "common/types.h"
#include "core/messages.h"

namespace mmrfd::transport {

class Encoder {
 public:
  Encoder() = default;
  /// Encodes into `storage`'s allocation, cleared first: a caller that
  /// encodes repeatedly hands back what take() returned and keeps one buffer.
  explicit Encoder(std::vector<std::uint8_t> storage)
      : buf_(std::move(storage)) {
    buf_.clear();
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// LEB128: 7 value bits per byte, high bit = continuation (1-10 bytes).
  void uvarint(std::uint64_t v);
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::optional<std::uint8_t> u8();
  [[nodiscard]] std::optional<std::uint32_t> u32();
  [[nodiscard]] std::optional<std::uint64_t> u64();
  [[nodiscard]] std::optional<std::uint64_t> uvarint();

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_{0};
};

// --- query-response protocol messages ---------------------------------------

/// Each writes or reads one whole message, flags byte first; the decoders
/// refuse a flags byte of the other type and leave trailing bytes unread.
void encode(Encoder& e, const core::QueryMessage& m);
void encode(Encoder& e, const core::ResponseMessage& m);
[[nodiscard]] std::optional<core::QueryMessage> decode_query(Decoder& d);
[[nodiscard]] std::optional<core::ResponseMessage> decode_response(Decoder& d);

/// Exact size of the message's datagram, the simulator's size_fn: one
/// allocation-free pass over the entries.
[[nodiscard]] std::size_t wire_size(const core::QueryMessage& m);
[[nodiscard]] std::size_t wire_size(const core::ResponseMessage& m);

/// Encoded length of a LEB128 varint: 7 of its significant bits per byte.
/// (9b + 64) / 64 equals ceil(b / 7) for every b in [1, 64].
[[nodiscard]] constexpr std::size_t uvarint_size(std::uint64_t v) {
  return (static_cast<std::size_t>(std::bit_width(v | 1)) * 9 + 64) / 64;
}

/// The largest query datagram a cluster of n processes can produce: 2n
/// entries at the worst case of 15 bytes each (a 5-byte id gap and a
/// 10-byte tag) under a header of maximal varints. Receivers size their
/// datagram buffers from it.
[[nodiscard]] std::size_t max_query_wire_size(std::uint32_t n);

// --- datagrams --------------------------------------------------------------

using WireMessage = std::variant<core::QueryMessage, core::ResponseMessage>;

/// One datagram: the message's bytes, wire_size(m) of them.
[[nodiscard]] std::vector<std::uint8_t> encode_message(const WireMessage& m);
/// The message a whole datagram holds; nullopt unless every byte belongs to
/// one well-formed message.
[[nodiscard]] std::optional<WireMessage> decode_message(
    std::span<const std::uint8_t> datagram);

}  // namespace mmrfd::transport
