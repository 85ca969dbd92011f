// Offline analyzers over a run's EventLog: every number the experiments
// report is computed here, so benches and tests share one definition of
// "detection time", "false suspicion", etc.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "metrics/event_log.h"

namespace mmrfd::metrics {

/// Detection of one crash by one observer.
struct Detection {
  ProcessId observer;
  ProcessId subject;
  TimePoint crash_at{kTimeZero};
  /// Start of the observer's *final* (permanent) suspicion of the subject;
  /// unset if the observer never permanently suspected it in the horizon.
  std::optional<TimePoint> detected_at;

  [[nodiscard]] std::optional<Duration> latency() const {
    if (!detected_at) return std::nullopt;
    return *detected_at - crash_at;
  }
};

/// Per-crash summary across all correct observers.
struct CrashDetectionSummary {
  ProcessId subject;
  TimePoint crash_at{kTimeZero};
  std::size_t observers{0};
  std::size_t detected_by{0};  ///< observers that permanently suspected it
  SampleSet latencies;         ///< seconds, one sample per detecting observer
  /// Time until *all* observers permanently suspect (strong completeness
  /// instant for this crash); unset if some observer never did.
  std::optional<Duration> completeness_latency;
};

/// False (wrongful) suspicion: a correct subject entered someone's suspected
/// set. `cleared_at` unset = never repaired within the horizon.
struct FalseSuspicion {
  ProcessId observer;
  ProcessId subject;
  TimePoint suspected_at{kTimeZero};
  std::optional<TimePoint> cleared_at;
};

/// One point of the "active false suspicions over time" series (E3):
/// after `when`, `active` wrongful (observer, subject) pairs are suspected.
struct FalseSuspicionPoint {
  TimePoint when{kTimeZero};
  std::int64_t active{0};
};

class Analysis {
 public:
  /// `n` = system size; the log's crash records define the faulty set.
  /// `horizon` = the end of the run: a transition stamped after it does not
  /// count, so each pair's state at the horizon is final. One stamped at
  /// exactly the horizon counts, as the simulator fires an event due at its
  /// deadline.
  Analysis(const EventLog& log, std::uint32_t n, TimePoint horizon);

  [[nodiscard]] std::vector<ProcessId> correct() const;
  [[nodiscard]] std::vector<ProcessId> faulty() const;

  /// Per-(observer, crash) detection outcomes for all correct observers.
  [[nodiscard]] std::vector<Detection> detections() const;

  /// Grouped per crash.
  [[nodiscard]] std::vector<CrashDetectionSummary> crash_summaries() const;

  /// All wrongful suspicions by correct observers of correct subjects.
  [[nodiscard]] std::vector<FalseSuspicion> false_suspicions() const;

  /// Step series of concurrently-active wrongful suspicions.
  [[nodiscard]] std::vector<FalseSuspicionPoint> false_suspicion_series() const;

  /// Eventual weak accuracy: some correct process is suspected by no correct
  /// observer after the returned instant (the last wrongful-suspicion
  /// activity involving it). Unset if every correct process is wrongfully
  /// suspected "forever" (i.e. uncleared at the horizon).
  [[nodiscard]] std::optional<TimePoint> accuracy_stabilization() const;

  /// Global cleanliness: the instant of the *last* wrongful-suspicion repair
  /// anywhere (time zero if there were none). Unset if any wrongful
  /// suspicion was still open at the horizon. Strictly stronger than
  /// accuracy_stabilization(): after this instant no correct process
  /// suspects any correct process.
  [[nodiscard]] std::optional<TimePoint> full_accuracy_stabilization() const;

  /// Strong completeness: every crash permanently suspected by every correct
  /// observer within the horizon.
  [[nodiscard]] bool strong_completeness() const;

 private:
  [[nodiscard]] std::optional<TimePoint> crash_time(ProcessId id) const;

  const EventLog& log_;
  std::uint32_t n_;
  TimePoint horizon_;
};

/// Headline metrics computable from per-pair rollups (LogMode::kRollup),
/// matching the definitions Analysis derives from the full event stream:
/// detection = start of the final (still-open) suspicion interval, latencies
/// clamped at zero, false suspicions = intervals between two correct
/// processes, clean_at = last wrongful repair (unset while one is open).
struct RollupSummary {
  SampleSet detection_latencies;  ///< seconds, per (crash, correct observer)
  /// Worst per-crash strong-completeness latency (seconds); unset if some
  /// crash went undetected by some correct observer.
  std::optional<double> completeness_latency;
  bool strong_completeness{false};
  std::size_t false_suspicions{0};
  std::optional<double> clean_at;  ///< seconds
};

/// `pairs` from EventLog::rollup(), `crashes` from EventLog::crashes(),
/// `n` = system size.
RollupSummary summarize_rollup(const std::vector<PairRollup>& pairs,
                               const std::vector<CrashRecord>& crashes,
                               std::uint32_t n);

}  // namespace mmrfd::metrics
