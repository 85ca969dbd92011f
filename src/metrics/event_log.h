// Suspicion event log.
//
// Every detector implementation publishes suspicion transitions through
// core::SuspicionObserver; the per-node adapters here stamp them with the
// observing node and the virtual time, producing one global, ordered event
// stream per run. All evaluation metrics (detection time, false-suspicion
// counts, accuracy convergence) are pure functions of this log plus the
// crash schedule — see analysis.h.
//
// Two retention modes, each keeping one copy of the history:
//   * kFull keeps every transition (the default; what Analysis consumes)
//     and nothing else. At n = 1000 a 20 s sweep retains ~1.3M entries
//     (~30 MB) — fine for a single serial run, ruinous when multiplied by
//     shards and pushed to n = 10,000.
//   * kRollup folds each transition into a per-(observer, subject) pair
//     summary on arrival: the currently-open suspicion interval, episode
//     and mistake counters, and the last repair instant. Memory is bounded
//     by the number of pairs that ever interacted, independent of run
//     length. summarize_rollup() (analysis.h) computes the headline metrics
//     (detection latency, strong completeness, false suspicions) from it
//     with the same semantics Analysis derives from the full stream.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "core/failure_detector.h"
#include "sim/simulation.h"

namespace mmrfd::metrics {

enum class SuspicionEventKind : std::uint8_t {
  kSuspected,  ///< subject entered observer's suspected set
  kCleared,    ///< subject left observer's suspected set
  kMistake,    ///< observer recorded a mistake entry for subject
};

struct SuspicionEvent {
  TimePoint when{kTimeZero};
  ProcessId observer;
  ProcessId subject;
  SuspicionEventKind kind{SuspicionEventKind::kSuspected};
  Tag tag{0};
};

struct CrashRecord {
  ProcessId subject;
  TimePoint when{kTimeZero};
};

enum class LogMode : std::uint8_t {
  kFull,    ///< retain every transition (events() is the full stream)
  kRollup,  ///< fold transitions into per-pair summaries on arrival
};

/// Streaming summary of one (observer, subject) pair's suspicion history.
struct PairRollup {
  ProcessId observer;
  ProcessId subject;
  /// Whether the observer suspected the subject at the end of the run; if
  /// so, `open_since` is the start of that final (permanent) interval —
  /// exactly Analysis's "last kSuspected with no later kCleared".
  bool open{false};
  TimePoint open_since{kTimeZero};
  /// Instant of the last kCleared for this pair (kTimeZero if none).
  TimePoint last_clear{kTimeZero};
  std::uint32_t episodes{0};  ///< suspicion intervals opened
  std::uint32_t mistakes{0};  ///< kMistake events recorded
};

class EventLog {
 public:
  explicit EventLog(sim::Simulation& simulation, LogMode mode = LogMode::kFull)
      : sim_(simulation), mode_(mode) {}

  void record(ProcessId observer, ProcessId subject, SuspicionEventKind kind,
              Tag tag);
  void record_crash(ProcessId subject);

  /// Appends a pre-stamped event. The live-cluster path aggregates wall-
  /// clock-stamped transitions out of per-process node reports, where the
  /// simulation clock has no meaning; callers are responsible for feeding
  /// events in time order (sort before appending a merged stream).
  void append(const SuspicionEvent& event) {
    apply(event.when, event.observer, event.subject, event.kind, event.tag);
  }

  /// Records a crash at an explicit instant (live path: the supervisor's
  /// actual SIGKILL time).
  void record_crash_at(ProcessId subject, TimePoint when) {
    crashes_.push_back(CrashRecord{subject, when});
  }

  [[nodiscard]] LogMode mode() const { return mode_; }

  /// Full event stream; empty in rollup mode (use rollup() there).
  [[nodiscard]] const std::vector<SuspicionEvent>& events() const {
    return events_;
  }
  [[nodiscard]] const std::vector<CrashRecord>& crashes() const {
    return crashes_;
  }

  /// Snapshot of the per-pair summaries, sorted by (observer, subject) so
  /// the result is deterministic. It is the *only* output of rollup mode;
  /// a full-mode log folds its stream through the same rule on each call.
  [[nodiscard]] std::vector<PairRollup> rollup() const;

  /// Number of retained entries: events in full mode, pairs in rollup mode.
  [[nodiscard]] std::size_t entries() const {
    return mode_ == LogMode::kFull ? events_.size() : pairs_.size();
  }
  /// Approximate bytes retained by the log's growing state (events and
  /// crashes, plus the pair map in rollup mode), for memory-bound
  /// assertions and capacity planning.
  [[nodiscard]] std::size_t approx_retained_bytes() const;

  [[nodiscard]] TimePoint now() const { return sim_.now(); }

  /// Returns (creating on first use) the observer adapter for `observer_id`.
  /// The adapter's lifetime is owned by the log.
  core::SuspicionObserver* observer_for(ProcessId observer_id);

 private:
  class NodeObserver final : public core::SuspicionObserver {
   public:
    NodeObserver(EventLog& log, ProcessId observer_id)
        : log_(log), observer_id_(observer_id) {}
    void on_suspected(ProcessId subject, Tag tag) override {
      log_.record(observer_id_, subject, SuspicionEventKind::kSuspected, tag);
    }
    void on_cleared(ProcessId subject, Tag tag) override {
      log_.record(observer_id_, subject, SuspicionEventKind::kCleared, tag);
    }
    void on_mistake(ProcessId subject, Tag tag) override {
      log_.record(observer_id_, subject, SuspicionEventKind::kMistake, tag);
    }

   private:
    EventLog& log_;
    ProcessId observer_id_;
  };

  struct PairState {
    bool open{false};
    TimePoint open_since{kTimeZero};
    TimePoint last_clear{kTimeZero};
    std::uint32_t episodes{0};
    std::uint32_t mistakes{0};
  };

  void apply(TimePoint when, ProcessId observer, ProcessId subject,
             SuspicionEventKind kind, Tag tag);

  sim::Simulation& sim_;
  LogMode mode_;
  std::vector<SuspicionEvent> events_;
  std::vector<CrashRecord> crashes_;
  std::unordered_map<std::uint64_t, PairState> pairs_;
  std::vector<std::unique_ptr<NodeObserver>> adapters_;
};

}  // namespace mmrfd::metrics
