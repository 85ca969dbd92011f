// MmrCluster — a complete simulated deployment of the asynchronous failure
// detector: simulator + network + n hosts + event log + MP recorder, built
// from one declarative config. This is the entry point used by the examples,
// the integration tests and every experiment binary.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/properties.h"
#include "metrics/event_log.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "runtime/crash_plan.h"
#include "runtime/mmr_host.h"
#include "sim/simulation.h"

namespace mmrfd::runtime {

/// Transient network slowdown: delays of messages touching `affected`
/// (everyone if empty) are multiplied by `factor` during [start, end).
struct SpikeSpec {
  TimePoint start{kTimeZero};
  TimePoint end{kTimeZero};
  double factor{10.0};
  std::vector<ProcessId> affected;
};

struct MmrClusterConfig {
  std::uint32_t n{10};
  std::uint32_t f{2};
  std::uint64_t seed{42};

  /// Inter-query pacing Delta (the evaluation uses 1 s).
  Duration pacing{from_millis(1000)};
  /// Relative per-round pacing jitter in [0, 1) — "finite but arbitrary"
  /// inter-query times.
  double pacing_jitter{0.0};
  /// Mean one-hop network delay (the evaluation uses 1 ms).
  Duration mean_delay{from_millis(1)};
  net::DelayPreset delay_preset{net::DelayPreset::kExponential};

  /// Processes whose outgoing messages are sped up by `fast_factor` — the
  /// engineered way to make the MP behavioral property hold. Empty = no bias
  /// (MP may still hold by luck; the checker decides).
  std::vector<ProcessId> fast_set;
  double fast_factor{0.1};

  std::optional<SpikeSpec> spike;

  /// Protocol knobs (see core::DetectorConfig).
  bool accept_late_responses{true};
  std::uint32_t extra_quorum{0};
  /// Delta-encoded queries (ON = production default; OFF = the paper's
  /// canonical full encoding, kept as the semantic reference the
  /// encoding-equivalence harness diffs against).
  bool delta_queries{true};
  /// Event-log retention: kRollup folds transitions into per-pair summaries
  /// on arrival (bounded memory for huge-n sweeps; Analysis needs kFull).
  metrics::LogMode log_mode{metrics::LogMode::kFull};

  /// Adversarial channel knobs, forwarded to every net::Network instance
  /// (serial: the one network; sharded: each per-shard network — every
  /// fault decision is still made on the sending shard, so runs stay
  /// deterministic per seed). All off by default: the golden digests
  /// require that all-knobs-off schedules stay bit-identical.
  struct FaultSpec {
    double loss_rate{0.0};
    double duplicate_rate{0.0};
    /// Reordering: fraction of messages stretched by an extra delay drawn
    /// uniformly from (0, reorder_window].
    double reorder_rate{0.0};
    Duration reorder_window{from_millis(20)};
    /// Directed edges blocked for the whole run (asymmetric partitions).
    std::vector<std::pair<ProcessId, ProcessId>> blocked_links;
    /// Directed edges down during [down, up) of sim time (link flaps).
    struct Flap {
      ProcessId from;
      ProcessId to;
      TimePoint down{kTimeZero};
      TimePoint up{kTimeZero};
    };
    std::vector<Flap> link_flaps;
  };
  FaultSpec faults;

  /// Crashed-peer give-up policy (see core::DetectorConfig::giveup_rounds).
  std::uint32_t giveup_rounds{8};
  /// Watermark self-stabilization guard (DetectorConfig::resync_interval).
  std::uint32_t resync_interval{64};

  /// Optional shared metrics registry for the cluster's sim.* instruments
  /// (round counts, round-RTT histogram), forwarded to every host. The
  /// sharded cluster ignores this and owns one registry per shard instead
  /// (merged via telemetry()) so shard workers never share cache lines.
  /// Collection is schedule-neutral; null = off.
  obs::MetricsRegistry* registry{nullptr};

  /// Per-host flight-recorder capacity (records). > 0 gives every host its
  /// own sim-time-stamped FlightRecorder (see MmrCluster::trace()), the
  /// ground-truth feed for the TraceAssembler differential test. Recording
  /// is pure observation — no RNG draws, no scheduling — so fixed-seed
  /// schedules and golden digests are untouched. 0 = off.
  std::size_t trace_capacity{0};
};

/// The config's composed delay model (preset + fast-set bias + spike).
/// Shared by the serial and sharded clusters so both deployments sample
/// from identically-structured models.
std::unique_ptr<net::DelayModel> build_mmr_delays(
    const MmrClusterConfig& config);

/// Applies config.faults to one network instance. Shared by the serial and
/// sharded clusters (the sharded one calls it once per shard network).
void apply_fault_knobs(MmrNetwork& net, const MmrClusterConfig& config);

/// Process `self`'s host config (registry and recorder unset). Both
/// clusters call it in id order with one `stagger` stream, so the serial
/// and sharded deployments start identical hosts.
MmrHostConfig mmr_host_config(const MmrClusterConfig& config, ProcessId self,
                              Xoshiro256& stagger);

class MmrCluster {
 public:
  explicit MmrCluster(const MmrClusterConfig& config);

  /// Schedules the crash plan and starts every host. Call once.
  void start(const CrashPlan& plan = CrashPlan::none());

  void run_for(Duration d) { sim_.run_for(d); }
  void run_until(TimePoint t) { sim_.run_until(t); }

  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] MmrNetwork& network() { return *net_; }
  [[nodiscard]] const MmrNetwork& network() const { return *net_; }
  [[nodiscard]] metrics::EventLog& log() { return log_; }
  [[nodiscard]] const metrics::EventLog& log() const { return log_; }
  [[nodiscard]] core::PropertyRecorder& recorder() { return recorder_; }
  [[nodiscard]] MmrHost& host(ProcessId id) { return *hosts_.at(id.value); }
  [[nodiscard]] const MmrHost& host(ProcessId id) const {
    return *hosts_.at(id.value);
  }
  [[nodiscard]] std::uint32_t n() const { return config_.n; }
  [[nodiscard]] const MmrClusterConfig& config() const { return config_; }

  /// Host `id`'s flight recorder (null unless config.trace_capacity > 0).
  [[nodiscard]] obs::FlightRecorder* trace(ProcessId id) {
    return traces_.empty() ? nullptr : traces_.at(id.value).get();
  }

  /// Ids of processes that have not crashed (yet).
  [[nodiscard]] std::vector<ProcessId> alive() const;

 private:
  MmrClusterConfig config_;
  sim::Simulation sim_;
  std::unique_ptr<MmrNetwork> net_;
  metrics::EventLog log_;
  core::PropertyRecorder recorder_;
  std::vector<std::unique_ptr<obs::FlightRecorder>> traces_;
  std::vector<std::unique_ptr<MmrHost>> hosts_;
  bool started_{false};
};

}  // namespace mmrfd::runtime
