#include "live/report.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "transport/codec.h"

namespace mmrfd::live {

namespace {

constexpr std::uint8_t kMagic[4] = {'M', 'M', 'R', 'L'};
// v4 layout: magic, u32 version, u32 self/n/f, u8 delta, u64
// pacing_ns/origin_ns/snapshot_ns/rounds, the obs::RegistrySnapshot (the
// report's only counters), the suspected set, then the events. Node and
// supervisor always ship together, so older files (stale runs) are simply
// rejected rather than upgraded.
constexpr std::uint32_t kVersion = 4;

// Decode-side allocation caps. A report is trusted input in the happy path
// (we wrote it), but a SIGKILL can leave stale files from older runs and the
// supervisor must never let a garbage length field drive an allocation.
constexpr std::uint64_t kMaxSuspected = 1u << 20;
constexpr std::uint64_t kMaxEvents = 1u << 26;
constexpr std::uint64_t kMaxMetricName = 1u << 10;
constexpr std::uint64_t kMaxInstruments = 1u << 16;

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

}  // namespace

std::vector<std::uint8_t> encode_report(const NodeReport& r) {
  transport::Encoder e;
  for (const std::uint8_t b : kMagic) e.u8(b);
  e.u32(kVersion);
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
  return e.take();
}

std::optional<NodeReport> decode_report(std::span<const std::uint8_t> data) {
  transport::Decoder d(data);
  for (const std::uint8_t b : kMagic) {
    const auto got = d.u8();
    if (!got || *got != b) return std::nullopt;
  }
  const auto version = d.u32();
  if (!version || *version != kVersion) return std::nullopt;

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
  if (!u32_into(r.self) || !u32_into(r.n) || !u32_into(r.f)) {
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

bool write_report_file(const NodeReport& r, const std::string& path) {
  const std::vector<std::uint8_t> bytes = encode_report(r);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return false;
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    os.flush();
    if (!os) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::uint64_t wall_clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::optional<NodeReport> read_report_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  const std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  if (!is.good() && !is.eof()) return std::nullopt;
  return decode_report(bytes);
}

}  // namespace mmrfd::live
