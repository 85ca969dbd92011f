// Binary per-node run reports — the observability half of the live-cluster
// subsystem.
//
// Each mmrfd-node process periodically snapshots its metrics registry and
// suspicion history to one file; the supervisor aggregates the files after
// the run. Counters travel only inside the embedded registry snapshot.
// The format is write-once binary (transport::Encoder primitives) because a
// node can die by SIGKILL at any instant: writes go to a temp file renamed
// into place, so a reader sees either the previous complete snapshot or the
// next one, never a torn file. Timestamps are wall-clock nanoseconds since
// a shared origin instant the supervisor hands every node, which makes
// events comparable across processes on one host.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics_registry.h"

namespace mmrfd::live {

/// One suspicion transition observed by a node. `kind` mirrors
/// metrics::SuspicionEventKind (0 suspected, 1 cleared, 2 mistake); on the
/// live path mmrfd-node copies them from its flight recorder's
/// suspicion section, so they carry kinds 0/1 only and a 32-bit tag.
struct ReportEvent {
  std::uint64_t when_ns{0};  ///< ns since the run origin
  std::uint32_t subject{0};
  std::uint8_t kind{0};
  std::uint64_t tag{0};  ///< live: the tag's low 32 bits

  friend bool operator==(const ReportEvent&, const ReportEvent&) = default;
};

/// Everything one node incarnation knows about its own run. Cumulative: a
/// later snapshot supersedes an earlier one at the same path.
struct NodeReport {
  // --- identity / configuration -------------------------------------------
  std::uint32_t self{0};
  std::uint32_t n{0};
  std::uint32_t f{0};
  bool delta{true};
  std::uint64_t pacing_ns{0};
  std::uint64_t origin_ns{0};    ///< UNIX ns all timestamps are relative to
  std::uint64_t snapshot_ns{0};  ///< write instant, ns since origin

  std::uint64_t rounds{0};  ///< rounds completed (the core's own count)

  // --- metrics registry snapshot -------------------------------------------
  // The node's full obs::MetricsRegistry at snapshot time, and the report's
  // only counters (rt.*, codec.*, fault.*, udp.*). The supervisor
  // merges these into the rollup and telemetry.jsonl series.
  obs::RegistrySnapshot metrics;

  // --- state ---------------------------------------------------------------
  std::vector<std::uint32_t> suspected;  ///< final suspected set at snapshot
  std::vector<ReportEvent> events;       ///< full transition history (LAST
                                         ///< section of the wire format)

  friend bool operator==(const NodeReport&, const NodeReport&) = default;
};

[[nodiscard]] std::vector<std::uint8_t> encode_report(const NodeReport& r);

/// Total decode: malformed or truncated input yields nullopt, never UB and
/// never an unbounded allocation.
[[nodiscard]] std::optional<NodeReport> decode_report(
    std::span<const std::uint8_t> data);

/// Atomic snapshot write (temp file + rename). Returns false on any I/O
/// failure; the previous snapshot at `path`, if any, survives a failure.
[[nodiscard]] bool write_report_file(const NodeReport& r,
                                     const std::string& path);

/// Reads and decodes one report file; nullopt if missing or malformed.
[[nodiscard]] std::optional<NodeReport> read_report_file(
    const std::string& path);

/// Current wall clock as UNIX nanoseconds — THE clock of the live
/// subsystem. Node event stamps and the supervisor's crash stamps must be
/// subtracted from each other, so both sides use this one helper.
[[nodiscard]] std::uint64_t wall_clock_ns();

}  // namespace mmrfd::live
