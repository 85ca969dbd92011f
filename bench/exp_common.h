// Shared scaffolding for the experiment binaries (E1-E8): uniform workload
// description, per-detector runners, and a uniform metrics summary, so every
// table in EXPERIMENTS.md is produced by the same measurement code.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "baselines/heartbeat.h"
#include "common/stats.h"
#include "metrics/analysis.h"
#include "net/delay_model.h"
#include "runtime/baseline_cluster.h"
#include "runtime/cluster.h"
#include "runtime/crash_plan.h"
#include "transport/codec.h"

namespace mmrfd::bench {

/// One simulated run's workload, shared by every detector under test.
struct Workload {
  std::uint32_t n{20};
  std::uint32_t f{5};
  std::uint64_t seed{1};
  std::size_t crashes{5};
  Duration horizon{from_seconds(60)};
  Duration crash_window_start{from_seconds(10)};
  Duration crash_window_end{from_seconds(40)};

  net::DelayPreset preset{net::DelayPreset::kExponential};
  Duration mean_delay{from_millis(1)};

  /// Detector cadence: MMR pacing Delta and baseline heartbeat period.
  Duration period{from_millis(1000)};
  /// Baseline fixed timeout Theta.
  Duration timeout{from_millis(2000)};
  /// Phi-accrual threshold.
  double phi_threshold{8.0};

  /// Processes sped up to engineer MP (empty = none).
  std::vector<ProcessId> fast_set;
  double fast_factor{0.1};
  std::optional<runtime::SpikeSpec> spike;

  // MMR ablation knobs.
  std::uint32_t extra_quorum{0};
};

/// Uniform result summary extracted from a run's event log.
struct RunMetrics {
  SampleSet detection_latencies;  ///< seconds, per (crash, observer)
  /// Worst per-crash strong-completeness latency (seconds); unset if some
  /// crash went undetected by some observer within the horizon.
  std::optional<double> completeness_latency;
  bool strong_completeness{false};
  std::size_t false_suspicions{0};
  /// Wrongful-suspicion repair times (seconds), for suspicions that cleared.
  SampleSet mistake_durations;
  std::uint64_t messages_sent{0};
  std::uint64_t bytes_sent{0};
  /// Step series of concurrently active wrongful suspicions.
  std::vector<metrics::FalseSuspicionPoint> false_series;
  /// MP verdict (MMR runs only).
  std::optional<core::MpVerdict> mp;
  /// Weak-accuracy stabilization instant (seconds), if reached: some correct
  /// process is never wrongly suspected after it.
  std::optional<double> accuracy_stable_at;
  /// Global cleanliness instant (seconds), if reached: the last wrongful
  /// suspicion anywhere was repaired by then.
  std::optional<double> clean_at;
};

RunMetrics summarize(const metrics::EventLog& log, std::uint32_t n,
                     Duration horizon);

/// Rollup-mode counterpart of summarize(): fills the fields computable from
/// per-pair rollups (detection latencies, completeness, false-suspicion
/// count, clean_at) and leaves the stream-only ones (mistake durations,
/// false series, accuracy_stable_at) empty.
RunMetrics summarize_rollup_metrics(const std::vector<metrics::PairRollup>& pairs,
                                    const std::vector<metrics::CrashRecord>& crashes,
                                    std::uint32_t n);

/// The paper's detector.
RunMetrics run_mmr(const Workload& w);

/// Dispatch by name: "mmr", or a baseline: "heartbeat" (fixed timeout
/// Theta = w.timeout), "phi" (phi-accrual at w.phi_threshold), "adaptive"
/// (w.timeout read as the safety margin alpha) or "gossip" (counter vectors
/// under the fixed timeout).
RunMetrics run_detector(const std::string& name, const Workload& w);

/// Merges per-seed SampleSets: convenience for seed-averaged tables.
void append_samples(SampleSet& into, const SampleSet& from);

/// Checks one system size before the first run: every detector needs
/// n >= 2 processes, and the model tolerates f < n crashes. Otherwise prints
/// one stderr line naming the flag at fault (`n_flag` or --f) and returns
/// false, and the driver exits 2.
bool check_system(const char* driver, const char* n_flag, std::uint32_t n,
                  std::uint32_t f);

}  // namespace mmrfd::bench
