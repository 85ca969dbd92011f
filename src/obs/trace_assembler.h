// TraceAssembler — stitches per-node flight-recorder rings into one
// cluster-wide causal timeline with detection-latency attribution.
//
// Input: one record stream per (node, incarnation) — loaded from the
// binary ring dump a live node writes when it stops (or from its
// fatal-signal handler), or taken straight from an in-memory
// FlightRecorder — plus the run's crash schedule and, for a live run, its
// horizon: what the trace tells of the run stops there. Output, per
// crash: the critical path crash → first missed query → each observer's
// permanent suspicion → cluster-stable detection, with every observer's
// detection latency split into three exactly-summing components:
//
//   round-pacing — time the detecting round had not yet opened (the crash
//                  fell inside the previous round / pacing window) plus
//                  the grace: the post-quorum wait before finish_round
//                  (the late wave inside it included), reported on its
//                  own as grace_ns;
//   resend-wait  — round open until the last resend wave before the
//                  quorum (0 when the first transmission reached quorum);
//   wire         — last (re)transmission until the quorum instant: actual
//                  message propagation and response assembly.
//
// One clock: the live transport is loopback-only, so every ring a node
// writes and every kill stamp the Supervisor takes read the same host
// CLOCK_REALTIME, and simulator rings all read sim time. There is no skew
// to estimate: alignment subtracts the run's origin and nothing else, so
// assembled latencies reproduce metrics::Analysis exactly, in simulation
// (the differential test that certifies the assembler) and on live dumps.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight_recorder.h"

namespace mmrfd::obs {

/// One (node, incarnation) record stream. Incarnations of the same node
/// are merged in increasing-incarnation order (a re-exec'd node's ring
/// continues, not replaces, its predecessor's timeline).
struct TraceNodeInput {
  std::uint32_t node{0};
  std::uint32_t incarnation{0};
  std::vector<TraceRecord> records;
};

struct AssemblerOptions {
  /// Subtracted from every record stamp, translating wall-clock rings into
  /// the supervisor's origin-relative frame (the frame crash times are
  /// stamped in): the whole alignment. 0 for simulator rings.
  std::uint64_t origin_ns{0};
  /// The run's end, origin-relative. Records aligned after it are dropped,
  /// as metrics::Analysis drops transitions after its horizon (one at
  /// exactly the horizon counts). Unset = keep all.
  std::optional<std::int64_t> horizon_ns;
  /// Keep the merged, aligned record stream in the result (timeline CLI).
  bool keep_timeline{false};
};

/// One observer's detection of one crash, with the latency attribution.
/// pacing + resend_wait + wire == latency, exactly (negative latencies —
/// a pre-crash suspicion that stuck — degenerate to pacing == latency).
struct ObserverBreakdown {
  std::uint32_t observer{0};
  std::int64_t detect_ns{0};   ///< aligned instant of the final suspicion
  std::int64_t latency_ns{0};  ///< detect - crash (raw, can be negative)
  std::int64_t pacing_ns{0};
  std::int64_t resend_wait_ns{0};
  std::int64_t wire_ns{0};
  /// The post-quorum share of pacing_ns: detect minus the detecting
  /// round's quorum (0 without a split, 0 <= grace <= pacing otherwise).
  std::int64_t grace_ns{0};
  std::uint32_t round_seq{0};     ///< the detecting round at this observer
  std::uint32_t resend_waves{0};  ///< waves before the round's quorum
};

/// Critical path of one crash across the whole cluster.
struct CrashTimeline {
  std::uint32_t victim{0};
  std::int64_t crash_ns{0};
  /// Last aligned instant any observer heard from the victim.
  std::optional<std::int64_t> last_heard_ns;
  /// First aligned query transmission to the victim at/after the crash —
  /// the first response that will never come.
  std::optional<std::int64_t> first_missed_ns;
  std::vector<ObserverBreakdown> observers;  ///< detecting observers only
  /// Cluster-stable instant (every observer detected); unset otherwise.
  std::optional<std::int64_t> stable_ns;
  std::uint32_t undetected{0};  ///< observers with no permanent suspicion
};

/// One merged-timeline entry (populated only with keep_timeline).
struct TimelineEvent {
  std::int64_t t_ns{0};  ///< aligned, origin-relative
  std::uint32_t node{0};
  std::uint32_t incarnation{0};
  TraceRecord record;
};

struct AssembledTrace {
  std::vector<CrashTimeline> crashes;
  std::vector<TimelineEvent> timeline;  ///< empty unless keep_timeline
  std::size_t records{0};
  /// tx -> rx links: a kQueryTx and the peer's kQueryRx, or a kResponseTx
  /// and the peer's kResponseRx, matched by (peer, seq) where each side
  /// occurs once in the dumps.
  std::size_t matched_pairs{0};
  /// Links whose rx is stamped before its tx. Every tx is stamped before
  /// its send, on the one clock, so anything but 0 breaks that rule.
  std::size_t causal_violations{0};
};

class TraceAssembler {
 public:
  explicit TraceAssembler(AssemblerOptions options);

  void add_node(TraceNodeInput input);
  void add_crash(std::uint32_t victim, std::int64_t at_ns);

  [[nodiscard]] AssembledTrace assemble() const;

 private:
  AssemblerOptions options_;
  std::vector<TraceNodeInput> inputs_;
  std::vector<std::pair<std::uint32_t, std::int64_t>> crashes_;
};

// --- dump loading ------------------------------------------------------------

/// Loads a binary `.trace` dump (FlightRecorder::dump_binary_fd's layout).
/// Torn or corrupt records are dropped; nullopt = unreadable file, no
/// kBinaryMagic, or a bad header. Records come back seq-ordered.
std::optional<std::vector<TraceRecord>> load_trace_records(
    const std::string& path);

/// True when one node's ring (seq-ordered) starts at seq 0 and holds a
/// kResendWave before its first kRoundClose: that incarnation's first round
/// waited for a wave, as one whose first query went to an unbound peer
/// does. A ring that wrapped (or lost its first record) no longer holds the
/// first round, so it answers false.
[[nodiscard]] bool first_round_waited_for_wave(
    const std::vector<TraceRecord>& records);

// --- run manifest ------------------------------------------------------------

/// What the supervisor writes next to the dumps so offline assembly knows
/// the run's shape. Plain line-oriented text ("mmrfd-trace-manifest v1").
struct TraceManifest {
  std::uint64_t origin_ns{0};
  /// The run's horizon, origin-relative (AssemblerOptions::horizon_ns).
  std::optional<std::int64_t> horizon_ns;
  struct Crash {
    std::uint32_t victim{0};
    std::int64_t at_ns{0};
  };
  std::vector<Crash> crashes;
  struct Entry {
    std::uint32_t node{0};
    std::uint32_t incarnation{0};
    std::string file;  ///< relative to the manifest's directory
  };
  std::vector<Entry> traces;
};

inline constexpr std::string_view kTraceManifestName = "trace_manifest.txt";

bool write_manifest(const std::string& path, const TraceManifest& manifest);
/// Skips lines it does not know and fields past those it reads, so older
/// v1 manifests load too (their n, pacing_ns and resend_ns lines, and a
/// third field on a crash line, once a restart bit).
std::optional<TraceManifest> load_manifest(const std::string& path);

/// Loads `<dir>/trace_manifest.txt` plus every dump it lists and runs the
/// assembler. nullopt = missing/unreadable manifest.
std::optional<AssembledTrace> assemble_from_dir(const std::string& dir,
                                                bool keep_timeline = false);

// --- emitters ----------------------------------------------------------------

/// Whole-result JSON document (counts, crashes, attribution; timeline
/// included when present).
std::string to_json(const AssembledTrace& trace);

/// Human-readable per-crash breakdown tables, after the counts.
void write_text(std::ostream& out, const AssembledTrace& trace);

/// Chronological merged event listing (requires keep_timeline).
void write_timeline(std::ostream& out, const AssembledTrace& trace);

}  // namespace mmrfd::obs
