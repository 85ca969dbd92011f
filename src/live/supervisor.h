// live::Supervisor — fork/exec orchestration of a loopback mmrfd-node
// cluster: the piece that turns the per-process daemon into an experiment
// platform. It spawns n real OS processes, drives a crash/recovery schedule
// by SIGKILLing (and optionally re-execing) nodes at planned wall-clock
// offsets, monitors child liveness, and after the run aggregates every
// node's binary report through the existing metrics::Analysis — so live
// detection latency, false suspicions and message cost are computed by the
// same code as the simulated experiments.
//
// Start and end: each node gets one end of a control socket
// (live/control.h). The Supervisor forks all n, waits until every one has
// bound its UDP socket and said ready, and then releases them all at once
// with the run's origin, stamped at that instant: the crash plan, the kill
// stamps, the node reports and the horizon count from the release. A node
// that exits before it is ready (a port in use) fails the run at once. A
// node whose Supervisor is gone sees EOF on its socket and stops as on
// SIGTERM, so a Supervisor killed mid-run leaves no node behind.
//
// Crash semantics: SIGKILL is a faithful crash-stop (no flush, no goodbye);
// what survives of a victim's history is its last periodic report snapshot.
// A restart re-execs the same node id with fresh state, which is exactly
// the state-loss scenario the delta encoding's need_full resync exists for.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "live/report.h"
#include "obs/trace_assembler.h"

namespace mmrfd::live {

/// One planned fault: SIGKILL `victim` at `at` (relative to the release) and,
/// if `restart_at` is set, re-exec it with fresh state at that offset; the
/// new incarnation is released as soon as it is spawned.
struct CrashEvent {
  ProcessId victim;
  Duration at{kTimeZero};
  std::optional<Duration> restart_at;
};

struct SupervisorConfig {
  std::uint32_t n{0};
  std::uint32_t f{0};
  std::uint16_t base_port{40000};
  Duration pacing{from_millis(100)};
  Duration resend{from_millis(500)};  ///< quorum-short query re-issue interval
  bool delta{true};
  Duration flush{from_millis(200)}; ///< node report snapshot interval
  /// Cluster time-series sampling interval: every `telemetry`, the current
  /// per-node report files are read back and one JSONL line per decodable
  /// report is appended to <report_dir>/telemetry.jsonl. Zero disables the
  /// file (including the end-of-run final/rollup lines).
  Duration telemetry{from_millis(500)};
  std::string node_binary;          ///< empty = default_node_binary()
  std::string report_dir;           ///< created if missing

  /// Crashed-peer give-up policy (DetectorConfig::giveup_rounds).
  std::uint32_t giveup_rounds{8};

  // Adversarial-channel knobs, forwarded to every node's FaultyTransport
  // (all zero = no fault layer in the stack at all). Each node incarnation
  // gets its own seed derived from fault_seed mod 2^64, so any value works.
  double fault_drop{0.0};
  double fault_corrupt{0.0};
  double fault_truncate{0.0};
  std::uint64_t fault_seed{1};

  /// Cross-node causal tracing: after the shutdown, list every ring dump the
  /// nodes wrote as they stopped (or died by a fatal signal) in a
  /// trace_manifest.txt beside them, with the run's origin and horizon, and
  /// assemble the cluster-wide timeline up to the horizon, every ring
  /// aligned by the origin alone (one host clock), with detection-latency
  /// attribution, into LiveRunResult::trace. Every node writes its ring at
  /// the stop; this sets its size and reads the dumps.
  bool trace{false};
  std::uint32_t trace_capacity{16384};  ///< per-node ring size when tracing
};

/// Wall-clock record of one kill actually performed.
struct LiveCrash {
  ProcessId victim;
  Duration at{kTimeZero};  ///< actual SIGKILL instant, ns since origin
  bool restarted{false};
};

/// Per-node outcome: one NodeReport per incarnation that produced one.
struct LiveNodeOutcome {
  ProcessId id;
  std::vector<NodeReport> reports;
  int spawns{0};
  bool planned_kill{false};
  std::size_t missing_reports{0};
};

struct LiveRunResult {
  Duration horizon{kTimeZero};
  std::vector<LiveNodeOutcome> nodes;
  std::vector<LiveCrash> crashes;
  std::size_t unexpected_exits{0};
  std::size_t missing_reports{0};

  // Aggregates computed by metrics::Analysis over the merged event stream.
  SampleSet detection_latencies;  ///< seconds, per (crash, correct observer)
  bool strong_completeness{false};
  std::size_t false_suspicions{0};

  /// Cluster-wide obs registry: every harvested report's snapshot merged
  /// (counters summed, histogram buckets summed — percentiles over the
  /// union of all nodes' samples). Read every other counter by name here.
  obs::RegistrySnapshot metrics;

  // Headline totals from `metrics`: rt.rounds, codec.malformed and the
  // ground-truth egress udp.datagrams_sent / udp.bytes_sent.
  std::uint64_t rounds{0};
  std::uint64_t malformed{0};
  std::uint64_t datagrams_sent{0};
  std::uint64_t wire_bytes_sent{0};

  /// Resource use of every node incarnation the run reaped (wait4's
  /// rusage), summed: user and system CPU in µs, voluntary and involuntary
  /// context switches.
  std::uint64_t node_user_cpu_us{0};
  std::uint64_t node_sys_cpu_us{0};
  std::uint64_t node_voluntary_switches{0};
  std::uint64_t node_involuntary_switches{0};
  /// The largest peak resident set (VmHWM, KiB) of any incarnation the run
  /// stopped, read just before its SIGKILL or SIGTERM.
  std::uint64_t node_max_rss_kb{0};

  /// Assembled cross-node causal timeline (SupervisorConfig::trace only):
  /// per-crash detection latencies attributed to round-pacing, resend-wait
  /// and wire time; each observer's latency equals metrics::Analysis's.
  /// Also written to <report_dir>/trace_assembled.json.
  std::optional<obs::AssembledTrace> trace;
};

/// Resolves the mmrfd-node binary: $MMRFD_NODE_BIN if set, else candidates
/// relative to this executable's directory (covering build/tests, build/bench
/// and build/src/live layouts), else "mmrfd-node" relying on PATH.
[[nodiscard]] std::string default_node_binary();

class Supervisor {
 public:
  explicit Supervisor(SupervisorConfig config);

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Runs one full experiment: spawns the cluster, releases it once every
  /// node is ready, executes `schedule`, SIGTERM-stops everything at
  /// `horizon` after the release, harvests and aggregates the reports
  /// (metrics::Analysis clips at the horizon). Blocking; throws
  /// std::runtime_error when the cluster cannot be spawned or a node exits
  /// before it is ready. Reaps every child it created before returning.
  [[nodiscard]] LiveRunResult run(const std::vector<CrashEvent>& schedule,
                                  Duration horizon);

 private:
  struct Proc {
    ProcessId id;
    pid_t pid{-1};
    /// The Supervisor's end of this incarnation's control socket.
    int control{-1};
    bool alive{false};
    int spawns{0};
    bool planned_kill{false};
    /// Last incarnation survived to the SIGTERM shutdown, so its final
    /// report flush is expected (a SIGKILLed incarnation may legitimately
    /// have no report yet).
    bool graceful{false};
    std::vector<std::string> report_paths;  // one per incarnation
  };

  void spawn(Proc& p);
  /// The start barrier: returns once every node has said ready on its
  /// control socket; throws std::runtime_error as soon as one exits first,
  /// or after 30 s.
  void await_ready(const std::vector<Proc>& procs) const;
  [[nodiscard]] std::string report_path(ProcessId id, int incarnation) const;
  void aggregate(std::vector<Proc>& procs, Duration horizon,
                 LiveRunResult& result) const;
  void assemble_traces(const std::vector<Proc>& procs,
                       LiveRunResult& result) const;

  SupervisorConfig config_;
  std::string node_binary_;
  std::uint64_t origin_ns_{0};
};

}  // namespace mmrfd::live
