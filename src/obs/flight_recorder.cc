#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

namespace mmrfd::obs {

std::uint64_t wall_clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

TraceClock wall_trace_clock() {
  return TraceClock{[](const void*) { return wall_clock_ns(); }, nullptr};
}

std::string_view trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kRoundOpen:
      return "round_open";
    case TraceKind::kRoundClose:
      return "round_close";
    case TraceKind::kQueryTx:
      return "query_tx";
    case TraceKind::kQueryRx:
      return "query_rx";
    case TraceKind::kResponseTx:
      return "response_tx";
    case TraceKind::kResponseRx:
      return "response_rx";
    case TraceKind::kSuspectAdd:
      return "suspect_add";
    case TraceKind::kSuspectDrop:
      return "suspect_drop";
    case TraceKind::kNeedFullTx:
      return "need_full_tx";
    case TraceKind::kNeedFullRx:
      return "need_full_rx";
    case TraceKind::kResync:
      return "resync";
    case TraceKind::kGiveUpSkip:
      return "giveup_skip";
    case TraceKind::kResendWave:
      return "resend_wave";
    case TraceKind::kQuorum:
      return "quorum";
    case TraceKind::kPeerRound:
      return "peer_round";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity, TraceClock clock)
    : clock_(clock), ring_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::record(TraceKind kind, std::uint32_t a,
                            std::uint32_t b) {
  std::lock_guard lock(mutex_);
  TraceRecord& slot = ring_[total_ % ring_.size()];
  slot.t_ns = clock_.now();
  slot.seq = total_;
  slot.a = a;
  slot.b = b;
  slot.kind = kind;
  if (kind == TraceKind::kSuspectAdd || kind == TraceKind::kSuspectDrop) {
    suspicions_.push_back(slot);
  }
  ++total_;
}

std::vector<TraceRecord> FlightRecorder::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<TraceRecord> out;
  const std::uint64_t live =
      total_ < ring_.size() ? total_ : static_cast<std::uint64_t>(ring_.size());
  out.reserve(static_cast<std::size_t>(live));
  const std::uint64_t first = total_ - live;
  for (std::uint64_t s = first; s < total_; ++s) {
    out.push_back(ring_[s % ring_.size()]);
  }
  return out;
}

std::vector<TraceRecord> FlightRecorder::suspicions() const {
  std::lock_guard lock(mutex_);
  return suspicions_;
}

std::uint64_t FlightRecorder::recorded() const {
  std::lock_guard lock(mutex_);
  return total_;
}

namespace {

// Little-endian scalar append into a flat byte buffer (signal path: the
// buffer lives on the caller's stack, no allocation).
template <typename T>
void put_le(unsigned char* dst, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    dst[i] = static_cast<unsigned char>(v >> (8 * i));
  }
}

bool write_all(int fd, const unsigned char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

bool FlightRecorder::dump_binary_fd(int fd) const noexcept {
  // Deliberately lock-free: taking mutex_ inside a SIGSEGV handler could
  // self-deadlock if the fault happened under record(). At worst one slot
  // is torn mid-write; the loader's kind/seq validation drops it.
  constexpr std::size_t kHeader = 24;
  constexpr std::size_t kRecord = 29;
  unsigned char buf[kHeader + kDumpChunkRecords * kRecord];
  for (std::size_t i = 0; i < sizeof(kBinaryMagic); ++i) {
    buf[i] = static_cast<unsigned char>(kBinaryMagic[i]);
  }
  const std::uint64_t total = total_;
  put_le(buf + 8, total);
  put_le(buf + 16, static_cast<std::uint64_t>(ring_.size()));
  // Until the ring wraps, only slots [0, total) were ever written.
  const std::size_t filled =
      total < ring_.size() ? static_cast<std::size_t>(total) : ring_.size();
  std::size_t used = kHeader;
  for (std::size_t i = 0; i < filled; ++i) {
    if (used + kRecord > sizeof(buf)) {
      if (!write_all(fd, buf, used)) return false;
      used = 0;
    }
    const TraceRecord& r = ring_[i];
    unsigned char* rec = buf + used;
    put_le(rec + 0, r.t_ns);
    put_le(rec + 8, r.seq);
    put_le(rec + 16, r.a);
    put_le(rec + 20, r.b);
    rec[28] = static_cast<unsigned char>(r.kind);
    used += kRecord;
  }
  return write_all(fd, buf, used);
}

bool FlightRecorder::dump_binary_to_file(const std::string& path) const {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool ok = dump_binary_fd(fd);
  ::close(fd);
  return ok;
}

}  // namespace mmrfd::obs
