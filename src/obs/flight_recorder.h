// Flight recorder: a fixed-size ring of compact binary trace records for
// post-hoc "what did this node actually do" forensics, plus a suspicion
// section that never wraps: every kSuspectAdd/kSuspectDrop record is also
// kept there, so the node's whole suspicion history survives the ring.
//
// Each record holds a timestamp, a monotone sequence number, two 32-bit
// operands and a kind tag: 32 bytes in memory, 29 per record in a binary
// dump. A dump is the ring's one way out of a process: a live node writes
// it once when it stops, or from its fatal-signal handler. The clock is
// pluggable so the same recorder works stamped by simulated time inside a
// deterministic run and by the wall clock inside a real process. Clock and
// ring size are fixed at construction; only the suspicion section grows.
// Recording never draws randomness and never schedules events, so it is
// safe to wire through the fixed-seed golden-digest paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mmrfd::obs {

// Pluggable timestamp source: a plain function pointer plus context so the
// recorder can be stamped from a Simulation without obs depending on sim.
struct TraceClock {
  std::uint64_t (*now_ns)(const void* ctx) = nullptr;
  const void* ctx = nullptr;

  std::uint64_t now() const { return now_ns ? now_ns(ctx) : 0; }
};

// UNIX-epoch nanoseconds from the system clock: the one clock of the live
// path. Ring records (through wall_trace_clock), the Supervisor's origin and
// kill stamps and a node's report stamps all read it, so they subtract from
// each other directly.
[[nodiscard]] std::uint64_t wall_clock_ns();

// wall_clock_ns() as a TraceClock — the live-path default.
TraceClock wall_trace_clock();

// One record per protocol step, written only by core::DetectorCore (rounds,
// suspicions, need_full, resync, give-up skips) and core::RoundDriver (the
// exchange, resend waves, quorum, peer rounds). A tx record is stamped
// before its send; the TraceAssembler matches the four exchange kinds by
// (peer, seq) into cross-node query/response quadruples.
enum class TraceKind : std::uint8_t {
  kRoundOpen = 1,    // a = round seq
  kRoundClose = 2,   // a = round seq, b = |suspected|
  kQueryTx = 3,      // a = peer, b = our round seq (low 32)
  kQueryRx = 4,      // a = peer, b = query seq (low 32)
  kResponseTx = 5,   // a = peer, b = echoed query seq (low 32)
  kResponseRx = 6,   // a = peer, b = echoed query seq (low 32)
  kSuspectAdd = 7,   // a = subject, b = low 32 bits of tag
  kSuspectDrop = 8,  // a = subject, b = low 32 bits of tag
  kNeedFullTx = 9,   // a = peer (we could not decode their delta)
  kNeedFullRx = 10,  // a = peer (they could not decode ours)
  kResync = 11,      // a = journal epoch at reset
  kGiveUpSkip = 12,  // a = peer skipped this round
  kResendWave = 13,  // a = wave number, b = silent peer count
  kQuorum = 14,      // a = round seq (low 32), b = responders at quorum
  kPeerRound = 15,   // a = peer, b = peer's own round seq off the wire
};

// Largest valid TraceKind value; anything outside [1, kMaxTraceKind] in a
// loaded dump is a torn or corrupt record and gets dropped.
inline constexpr std::uint8_t kMaxTraceKind = 15;

std::string_view trace_kind_name(TraceKind kind);

struct TraceRecord {
  std::uint64_t t_ns{0};  // clock stamp
  std::uint64_t seq{0};   // monotone per-recorder sequence number
  std::uint32_t a{0};
  std::uint32_t b{0};
  TraceKind kind{};

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity,
                          TraceClock clock = wall_trace_clock());

  void record(TraceKind kind, std::uint32_t a = 0, std::uint32_t b = 0);

  // Surviving records, oldest first. At most capacity() entries; once the
  // ring wraps, the oldest records are the ones overwritten.
  std::vector<TraceRecord> snapshot() const;

  // Every kSuspectAdd/kSuspectDrop record ever written, in seq order.
  // Unlike snapshot(), never loses one to the ring wrapping.
  std::vector<TraceRecord> suspicions() const;

  // Total records ever written (>= snapshot().size()).
  std::uint64_t recorded() const;
  std::size_t capacity() const { return ring_.size(); }

  // Binary dump of the ring alone, ASYNC-SIGNAL-SAFE: no locks, no
  // allocation — whole records are packed into a fixed stack buffer that
  // goes out in one write(2) per kDumpChunkRecords records, on an
  // already-open fd. Only the slots the ring filled go out: slots
  // [0, total) before it wraps, every slot after. The suspicion section
  // stays out: another thread may be reallocating it. From a fatal-signal
  // handler a concurrently-writing recorder may leave one torn record in
  // the ring; the loader drops records whose kind falls outside
  // [1, kMaxTraceKind]. Layout (little-endian):
  //   8-byte magic "MMRTRCB2", u64 total, u64 capacity,
  //   min(total, capacity) x { u64 t_ns, u64 seq, u32 a, u32 b, u8 kind }
  // Returns false if any write(2) fails.
  bool dump_binary_fd(int fd) const noexcept;
  // dump_binary_fd to `path` (truncate). Also lock-free — only call on a
  // quiescent recorder (a stopped node, a test).
  bool dump_binary_to_file(const std::string& path) const;

  // Records per write(2) of a binary dump: 256 x 29 B, a 7.4 KB buffer
  // on the dumping thread's stack.
  static constexpr std::size_t kDumpChunkRecords = 256;

  // Largest ring capacity a binary-dump loader accepts (a bigger header
  // claim is taken for corruption), so the largest ring worth recording.
  static constexpr std::uint64_t kMaxCapacity = 1u << 26;

  // First bytes of every binary dump; a loader rejects a file without them.
  static constexpr char kBinaryMagic[8] = {'M', 'M', 'R', 'T',
                                           'R', 'C', 'B', '2'};

 private:
  mutable std::mutex mutex_;
  const TraceClock clock_;
  std::vector<TraceRecord> ring_;
  std::vector<TraceRecord> suspicions_;
  std::uint64_t total_{0};
};

}  // namespace mmrfd::obs
