// ConsensusHarness — one simulation containing a complete failure-detector
// deployment (asynchronous MMR, a timer-based baseline, or a perfect oracle)
// plus n Chandra-Toueg consensus processes consuming those detectors.
// Used by the consensus integration tests and experiment E6.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "baselines/heartbeat.h"
#include "consensus/chandra_toueg.h"
#include "core/failure_detector.h"
#include "net/delay_model.h"
#include "runtime/crash_plan.h"
#include "runtime/mmr_host.h"
#include "sim/simulation.h"

namespace mmrfd::consensus {

enum class FdKind {
  kPerfect,    ///< oracle: suspects exactly the crashed (ground truth)
  kMmr,        ///< the paper's asynchronous query-response detector
  kHeartbeat,  ///< fixed-timeout heartbeat baseline
  kPhiAccrual, ///< accrual baseline
};

const char* fd_kind_name(FdKind kind);

struct HarnessConfig {
  std::uint32_t n{5};
  std::uint32_t f{2};  ///< must satisfy f < n/2 for consensus
  std::uint64_t seed{1};
  FdKind fd{FdKind::kMmr};

  Duration mean_delay{from_millis(1)};
  net::DelayPreset delay_preset{net::DelayPreset::kExponential};

  // MMR knobs.
  Duration mmr_pacing{from_millis(50)};
  std::vector<ProcessId> fast_set;  ///< empty = {p0}; engineered MP witness
  double fast_factor{0.1};

  // Baseline knobs.
  Duration hb_period{from_millis(50)};
  Duration hb_timeout{from_millis(200)};
  double phi_threshold{8.0};
};

class ConsensusHarness {
 public:
  explicit ConsensusHarness(const HarnessConfig& config);
  ~ConsensusHarness();

  /// Starts detectors, schedules crashes, and makes every process propose
  /// proposals[i] (proposals.size() == n). Call once.
  void start(std::span<const Value> proposals,
             const runtime::CrashPlan& plan = runtime::CrashPlan::none());

  /// Runs until every non-crashed process decided or `deadline` virtual
  /// time elapsed; returns true iff all correct processes decided.
  bool run_until_decided(Duration deadline);

  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] const ConsensusProcess& process(ProcessId id) const {
    return *procs_.at(id.value);
  }
  [[nodiscard]] bool all_correct_decided() const;
  /// The decided values of the correct processes (empty optional if any
  /// is undecided).
  [[nodiscard]] std::optional<Value> agreed_value() const;
  /// Largest round number reached by any correct process.
  [[nodiscard]] Round max_round() const;
  /// Virtual time when the *last* correct process decided.
  [[nodiscard]] std::optional<TimePoint> last_decision_at() const;

 private:
  class PerfectFd;

  [[nodiscard]] const core::FailureDetector& fd_for(ProcessId id) const;
  [[nodiscard]] bool is_crashed(ProcessId id) const;
  void crash_everything(ProcessId id);

  HarnessConfig config_;
  sim::Simulation sim_;

  std::vector<bool> crashed_;
  std::vector<std::unique_ptr<PerfectFd>> perfect_fds_;

  std::unique_ptr<runtime::MmrNetwork> mmr_net_;
  std::vector<std::unique_ptr<runtime::MmrHost>> mmr_hosts_;

  std::unique_ptr<baselines::HeartbeatNetwork> hb_net_;
  std::vector<std::unique_ptr<baselines::HeartbeatDetector>> hb_detectors_;

  std::unique_ptr<ConsensusNetwork> cons_net_;
  std::vector<std::unique_ptr<NetworkConsensusTransport>> cons_transports_;
  std::vector<std::unique_ptr<ConsensusProcess>> procs_;
  bool started_{false};
};

}  // namespace mmrfd::consensus
