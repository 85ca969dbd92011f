// Binary per-node run reports — the observability half of the live-cluster
// subsystem.
//
// Each mmrfd-node process periodically snapshots its metrics registry and
// suspicion history; the supervisor aggregates the snapshots after the run.
// Counters travel only inside the embedded registry snapshot. The format is
// binary (transport::Encoder primitives) and self-checking: a v5 frame
// carries its writer's 1-based snapshot number right after the version and
// ends with a 64-bit FNV-1a checksum over every byte before it, which the
// decoder verifies.
//
// A node can die by SIGKILL at any instant, and readers poll while it
// writes, so a ReportWriter keeps two slot files per path, `<path>` and
// `<path>.1`, opened (and truncated) once per incarnation. Snapshot k is one
// pwrite at offset 0 of slot k mod 2; a snapshot makes no open, rename or
// unlink. A kill can tear only the slot being written, and a reader that
// overlaps a write can see only that slot torn; either way its checksum
// fails, and the other slot still holds snapshot k - 1 whole.
// read_report_file returns the valid slot with the larger snapshot number,
// so a reader sees the previous or the next complete snapshot, never a torn
// one, and a reader that polls never sees the number go backwards.
// Timestamps are wall-clock nanoseconds since a shared origin instant the
// supervisor hands every node, which makes events comparable across
// processes on one host.
#pragma once

#include <cstddef>
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
  /// The writer's 1-based snapshot number: ReportWriter stamps it on every
  /// write, and the reader keeps the slot whose number is larger.
  std::uint64_t snapshot_seq{0};

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

/// One v5 frame of `r`, numbered r.snapshot_seq.
[[nodiscard]] std::vector<std::uint8_t> encode_report(const NodeReport& r);

/// Total decode: malformed, truncated or checksum-failing input yields
/// nullopt, never UB and never an unbounded allocation.
[[nodiscard]] std::optional<NodeReport> decode_report(
    std::span<const std::uint8_t> frame);

/// One node incarnation's snapshot store: the two slot files of `path`,
/// opened and truncated at construction, so a stale slot of an earlier run
/// can never outrank this writer's snapshots.
class ReportWriter {
 public:
  explicit ReportWriter(const std::string& path);
  ~ReportWriter();
  ReportWriter(const ReportWriter&) = delete;
  ReportWriter& operator=(const ReportWriter&) = delete;

  /// Stamps `r` with the next snapshot number, encodes it into the buffer
  /// the writer keeps, and writes it with one pwrite into slot
  /// (number mod 2); a frame shorter than the slot's last one also
  /// truncates the slot. Returns false on an I/O failure; the number then
  /// does not advance, so the other slot keeps the last snapshot written.
  [[nodiscard]] bool write(const NodeReport& r);

 private:
  int fd_[2]{-1, -1};
  std::size_t len_[2]{0, 0};  ///< bytes each slot holds
  std::uint64_t written_{0};  ///< the last snapshot number written
  std::vector<std::uint8_t> buf_;
};

/// Second slot file of a report path; the first is the path itself.
[[nodiscard]] std::string report_slot_path(const std::string& path);

/// Reads both slot files of `path` and returns the valid report with the
/// larger snapshot number: never older than the newest snapshot complete
/// when the call began. nullopt if neither slot holds one, or if the writer
/// rewrote both slots while this call read them.
[[nodiscard]] std::optional<NodeReport> read_report_file(
    const std::string& path);

}  // namespace mmrfd::live
