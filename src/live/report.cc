#include "live/report.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "transport/codec.h"

namespace mmrfd::live {

namespace {

constexpr std::uint8_t kMagic[4] = {'M', 'M', 'R', 'L'};
// v5 layout: magic, u32 version, u64 snapshot_seq, u32 self/n/f, u8 delta,
// u64 pacing_ns/origin_ns/snapshot_ns/rounds, the obs::RegistrySnapshot (the
// report's only counters), the suspected set, the events, then a u64 FNV-1a
// checksum of every byte before it. Node and supervisor always ship
// together, so older files (stale runs) are simply rejected rather than
// upgraded.
constexpr std::uint32_t kVersion = 5;
constexpr std::size_t kChecksumBytes = 8;

// Decode-side allocation caps. A report is trusted input in the happy path
// (we wrote it), but a SIGKILL can leave stale files from older runs and the
// supervisor must never let a garbage length field drive an allocation.
constexpr std::uint64_t kMaxSuspected = 1u << 20;
constexpr std::uint64_t kMaxEvents = 1u << 26;
constexpr std::uint64_t kMaxMetricName = 1u << 10;
constexpr std::uint64_t kMaxInstruments = 1u << 16;

// 64-bit FNV-1a: one multiply per byte, and any torn or flipped byte of a
// slot changes it.
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

void encode_name(transport::Encoder& e, const std::string& name) {
  e.u32(static_cast<std::uint32_t>(name.size()));
  for (const char c : name) e.u8(static_cast<std::uint8_t>(c));
}

std::optional<std::string> decode_name(transport::Decoder& d,
                                       std::size_t data_size) {
  const auto len = d.u32();
  if (!len || *len > kMaxMetricName || *len > data_size) return std::nullopt;
  std::string name;
  name.reserve(*len);
  for (std::uint32_t i = 0; i < *len; ++i) {
    const auto c = d.u8();
    if (!c) return std::nullopt;
    name.push_back(static_cast<char>(*c));
  }
  return name;
}

void encode_metrics(transport::Encoder& e, const obs::RegistrySnapshot& m) {
  e.u32(static_cast<std::uint32_t>(m.counters.size()));
  for (const obs::CounterSnapshot& c : m.counters) {
    encode_name(e, c.name);
    e.u64(c.value);
  }
  e.u32(static_cast<std::uint32_t>(m.gauges.size()));
  for (const obs::GaugeSnapshot& g : m.gauges) {
    encode_name(e, g.name);
    e.u64(static_cast<std::uint64_t>(g.value));  // two's-complement round-trip
  }
  e.u32(static_cast<std::uint32_t>(m.histograms.size()));
  for (const obs::HistogramSnapshot& h : m.histograms) {
    encode_name(e, h.name);
    e.u64(h.count);
    e.u64(h.sum);
    e.u32(static_cast<std::uint32_t>(h.buckets.size()));
    for (const auto& [idx, count] : h.buckets) {
      e.u32(idx);
      e.u64(count);
    }
  }
}

bool decode_metrics(transport::Decoder& d, std::size_t data_size,
                    obs::RegistrySnapshot& out) {
  const auto counter_count = d.u32();
  // Every instrument costs >= 12 encoded bytes (length + value), so a count
  // beyond data_size/12 cannot be honest; same reasoning below.
  if (!counter_count || *counter_count > kMaxInstruments ||
      *counter_count > data_size / 12) {
    return false;
  }
  out.counters.reserve(*counter_count);
  for (std::uint32_t i = 0; i < *counter_count; ++i) {
    auto name = decode_name(d, data_size);
    const auto value = d.u64();
    if (!name || !value) return false;
    out.counters.push_back({std::move(*name), *value});
  }
  const auto gauge_count = d.u32();
  if (!gauge_count || *gauge_count > kMaxInstruments ||
      *gauge_count > data_size / 12) {
    return false;
  }
  out.gauges.reserve(*gauge_count);
  for (std::uint32_t i = 0; i < *gauge_count; ++i) {
    auto name = decode_name(d, data_size);
    const auto value = d.u64();
    if (!name || !value) return false;
    out.gauges.push_back({std::move(*name), static_cast<std::int64_t>(*value)});
  }
  const auto histogram_count = d.u32();
  if (!histogram_count || *histogram_count > kMaxInstruments ||
      *histogram_count > data_size / 24) {
    return false;
  }
  out.histograms.reserve(*histogram_count);
  for (std::uint32_t i = 0; i < *histogram_count; ++i) {
    obs::HistogramSnapshot h;
    auto name = decode_name(d, data_size);
    const auto count = d.u64();
    const auto sum = d.u64();
    const auto bucket_count = d.u32();
    if (!name || !count || !sum || !bucket_count ||
        *bucket_count > obs::Histogram::kBuckets) {
      return false;
    }
    h.name = std::move(*name);
    h.count = *count;
    h.sum = *sum;
    h.buckets.reserve(*bucket_count);
    for (std::uint32_t b = 0; b < *bucket_count; ++b) {
      const auto idx = d.u32();
      const auto n = d.u64();
      if (!idx || !n || *idx >= obs::Histogram::kBuckets) return false;
      h.buckets.emplace_back(*idx, *n);
    }
    out.histograms.push_back(std::move(h));
  }
  return true;
}

// Encodes `r` stamped with snapshot number `seq` into `storage`'s
// allocation and seals the frame with its checksum.
std::vector<std::uint8_t> encode_frame(const NodeReport& r, std::uint64_t seq,
                                       std::vector<std::uint8_t> storage) {
  transport::Encoder e(std::move(storage));
  for (const std::uint8_t b : kMagic) e.u8(b);
  e.u32(kVersion);
  e.u64(seq);
  e.u32(r.self);
  e.u32(r.n);
  e.u32(r.f);
  e.u8(r.delta ? 1 : 0);
  e.u64(r.pacing_ns);
  e.u64(r.origin_ns);
  e.u64(r.snapshot_ns);
  e.u64(r.rounds);
  encode_metrics(e, r.metrics);
  e.u32(static_cast<std::uint32_t>(r.suspected.size()));
  for (const std::uint32_t id : r.suspected) e.u32(id);
  e.u32(static_cast<std::uint32_t>(r.events.size()));
  for (const ReportEvent& ev : r.events) {
    e.u64(ev.when_ns);
    e.u32(ev.subject);
    e.u8(ev.kind);
    e.u64(ev.tag);
  }
  std::vector<std::uint8_t> bytes = e.take();
  const std::uint64_t sum = fnv1a64(bytes);
  for (std::size_t i = 0; i < kChecksumBytes; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(sum >> (8 * i)));  // LE, as u64
  }
  return bytes;
}

// The frame's bytes before its checksum, if the checksum holds: a torn or
// damaged frame fails here, before any field is read.
std::optional<std::span<const std::uint8_t>> sealed_body(
    std::span<const std::uint8_t> frame) {
  if (frame.size() < kChecksumBytes) return std::nullopt;
  const auto body = frame.first(frame.size() - kChecksumBytes);
  transport::Decoder trailer(frame.last(kChecksumBytes));
  if (trailer.u64() != fnv1a64(body)) return std::nullopt;
  return body;
}

// Reads the magic and the version; false if either is not v5's.
bool decode_preamble(transport::Decoder& d) {
  for (const std::uint8_t b : kMagic) {
    const auto got = d.u8();
    if (!got || *got != b) return false;
  }
  const auto version = d.u32();
  return version && *version == kVersion;
}

// Parses a frame's body, the bytes before its checksum.
std::optional<NodeReport> decode_body(std::span<const std::uint8_t> data) {
  transport::Decoder d(data);
  if (!decode_preamble(d)) return std::nullopt;

  NodeReport r;
  const auto u32_into = [&](std::uint32_t& out) {
    const auto v = d.u32();
    if (v) out = *v;
    return v.has_value();
  };
  const auto u64_into = [&](std::uint64_t& out) {
    const auto v = d.u64();
    if (v) out = *v;
    return v.has_value();
  };
  if (!u64_into(r.snapshot_seq) || !u32_into(r.self) || !u32_into(r.n) ||
      !u32_into(r.f)) {
    return std::nullopt;
  }
  const auto delta = d.u8();
  if (!delta) return std::nullopt;
  r.delta = *delta != 0;
  for (std::uint64_t* field :
       {&r.pacing_ns, &r.origin_ns, &r.snapshot_ns, &r.rounds}) {
    if (!u64_into(*field)) return std::nullopt;
  }
  if (!decode_metrics(d, data.size(), r.metrics)) return std::nullopt;
  // Length fields are checked against the bytes actually present (4 per
  // suspected id, 21 per event) BEFORE reserving: a garbage count in a
  // corrupt file must fail the decode, not drive a giant allocation.
  const auto suspected_count = d.u32();
  if (!suspected_count || *suspected_count > kMaxSuspected ||
      *suspected_count > data.size() / 4) {
    return std::nullopt;
  }
  r.suspected.reserve(*suspected_count);
  for (std::uint32_t i = 0; i < *suspected_count; ++i) {
    const auto id = d.u32();
    if (!id) return std::nullopt;
    r.suspected.push_back(*id);
  }
  const auto event_count = d.u32();
  if (!event_count || *event_count > kMaxEvents ||
      *event_count > data.size() / 21) {
    return std::nullopt;
  }
  r.events.reserve(*event_count);
  for (std::uint32_t i = 0; i < *event_count; ++i) {
    ReportEvent ev;
    const auto when = d.u64();
    const auto subject = d.u32();
    const auto kind = d.u8();
    const auto tag = d.u64();
    if (!when || !subject || !kind.has_value() || !tag) return std::nullopt;
    ev.when_ns = *when;
    ev.subject = *subject;
    ev.kind = *kind;
    ev.tag = *tag;
    r.events.push_back(ev);
  }
  if (!d.exhausted()) return std::nullopt;  // trailing garbage
  return r;
}

// The bytes one slot file holds, as many as its size said when opened (a
// frame still growing reads torn); empty if it is missing or unreadable.
std::vector<std::uint8_t> slot_bytes(const std::string& slot) {
  std::vector<std::uint8_t> bytes;
  const int fd = ::open(slot.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return bytes;
  struct stat st {};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    bytes.resize(static_cast<std::size_t>(st.st_size));
    std::size_t got = 0;
    while (got < bytes.size()) {
      const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    bytes.resize(got);
  }
  ::close(fd);
  return bytes;
}

// The snapshot number of a slot's frame if the frame is whole: its
// checksum holds and it opens with v5's magic and version.
std::optional<std::uint64_t> sealed_seq(std::span<const std::uint8_t> frame) {
  const auto body = sealed_body(frame);
  if (!body) return std::nullopt;
  transport::Decoder d(*body);
  if (!decode_preamble(d)) return std::nullopt;
  return d.u64();
}

}  // namespace

std::vector<std::uint8_t> encode_report(const NodeReport& r) {
  return encode_frame(r, r.snapshot_seq, {});
}

std::optional<NodeReport> decode_report(std::span<const std::uint8_t> frame) {
  const auto body = sealed_body(frame);
  return body ? decode_body(*body) : std::nullopt;
}

std::string report_slot_path(const std::string& path) { return path + ".1"; }

ReportWriter::ReportWriter(const std::string& path) {
  const std::string slots[2] = {path, report_slot_path(path)};
  for (int i = 0; i < 2; ++i) {
    fd_[i] = ::open(slots[i].c_str(),
                    O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  }
}

ReportWriter::~ReportWriter() {
  for (const int fd : fd_) {
    if (fd >= 0) ::close(fd);
  }
}

bool ReportWriter::write(const NodeReport& r) {
  const std::uint64_t seq = written_ + 1;
  const std::size_t slot = seq % 2;
  const int fd = fd_[slot];
  if (fd < 0) return false;
  buf_ = encode_frame(r, seq, std::move(buf_));
  std::size_t done = 0;
  while (done < buf_.size()) {
    const ssize_t put = ::pwrite(fd, buf_.data() + done, buf_.size() - done,
                                 static_cast<off_t>(done));
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) {
      len_[slot] = std::max(len_[slot], done);
      return false;
    }
    done += static_cast<std::size_t>(put);
  }
  // A frame shorter than the slot's last one (a cleared suspicion shrinks
  // the suspected set) must not keep that frame's tail behind it.
  if (buf_.size() < len_[slot] &&
      ::ftruncate(fd, static_cast<off_t>(buf_.size())) != 0) {
    return false;
  }
  len_[slot] = buf_.size();
  written_ = seq;
  return true;
}

std::optional<NodeReport> read_report_file(const std::string& path) {
  // Reads alternate between the slots, `path` first, and stop at a whole
  // frame read right after the other slot; the newer of those two reads
  // wins, and only it is decoded. Together they never miss the snapshot
  // that was newest when the first began: if the second finds its slot
  // still holding the snapshot before that one, the writer had not begun
  // the next, so the first read found the newest whole. Any two reads would
  // not do: a writer that laps the reader between them can leave an older
  // snapshot in the first and a torn one in the second. A writer that keeps
  // lapping for four reads yields nullopt.
  const std::string slots[2] = {path, report_slot_path(path)};
  std::vector<std::uint8_t> bytes[2];
  std::optional<std::uint64_t> seq[2];
  for (int i = 0; i < 4; ++i) {
    bytes[i % 2] = slot_bytes(slots[i % 2]);
    seq[i % 2] = sealed_seq(bytes[i % 2]);
    if (i > 0 && seq[i % 2]) break;
  }
  const int newer = seq[0] && (!seq[1] || *seq[0] > *seq[1]) ? 0 : 1;
  if (!seq[newer]) return std::nullopt;
  return decode_body(std::span<const std::uint8_t>(bytes[newer])
                         .first(bytes[newer].size() - kChecksumBytes));
}

}  // namespace mmrfd::live
