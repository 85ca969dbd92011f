// The timer-based baselines: the practical failure detectors the paper
// argues against, all over one heartbeat counter per process.
//
// Every Delta each process bumps its own counter and sends it to its
// neighbours. A counter about a peer above the highest heard so far is a
// sign of life, and a suspicion rule turns the silence after it into
// suspicion:
//   * FixedTimeout — the classical heartbeat: suspect Theta after the last
//     sign. Detection is bounded by ~Theta whatever n, but Theta must be
//     *guessed*: too small and slow-but-correct processes are suspected
//     (accuracy breaks under delay spikes and heavy tails), too large and
//     detection is slow.
//   * AdaptiveTimeout (Chen, Toueg & Aguilera lineage) — predict the next
//     sign from the window's mean interval and suspect alpha after it. It
//     follows a drifting mean delay, but alpha is a guess like Theta.
//   * PhiAccrual (Hayashibara et al., SRDS 2004; what Cassandra and Akka
//     ship) — every `poll`, suspect while
//       phi(t) = -log10( P(next sign arrives later than t) )
//     under a normal fit of the window reaches `threshold`. It presumes a
//     locally stationary arrival distribution — exactly the assumption the
//     time-free detector drops; heavy tails (E5) and spikes (E3) show it.
//
// The message decides how signs travel. A HeartbeatMessage carries the
// sender's own counter (all-to-all heartbeat). A GossipMessage carries every
// counter the sender has heard (van Renesse et al. / Friedman & Tcharny
// lineage): the receiver merges it entry-wise by max, so information travels
// transitively and the scheme also works multi-hop — the closest OSS
// analogue of "suspicion flooding". E1-E6, E8 and E10 run these baselines
// beside the time-free detector, which has no knob to guess.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "common/types.h"
#include "core/failure_detector.h"
#include "net/network.h"
#include "sim/simulation.h"

namespace mmrfd::baselines {

struct HeartbeatMessage {
  std::uint64_t seq{0};
  friend bool operator==(const HeartbeatMessage&,
                         const HeartbeatMessage&) = default;
};

struct GossipMessage {
  std::vector<std::uint64_t> counters;
  friend bool operator==(const GossipMessage&, const GossipMessage&) = default;
};

using HeartbeatNetwork = net::Network<HeartbeatMessage>;

struct FixedTimeout {
  Duration timeout{from_millis(2000)};  ///< Theta
};

struct AdaptiveTimeout {
  Duration safety_margin{from_millis(500)};  ///< alpha
  std::size_t window{16};                    ///< intervals used to predict
};

struct PhiAccrual {
  double threshold{8.0};    ///< suspect when phi >= threshold
  std::size_t window{100};  ///< intervals kept
  /// Evaluation granularity: phi is re-evaluated this often per peer.
  Duration poll{from_millis(100)};
  /// Floor for the estimated stddev, guarding against a degenerate window.
  Duration min_stddev{from_millis(50)};
};

using SuspicionRule = std::variant<FixedTimeout, AdaptiveTimeout, PhiAccrual>;

struct HeartbeatConfig {
  ProcessId self{0};
  std::uint32_t n{0};
  Duration period{from_millis(1000)};  ///< Delta
  SuspicionRule rule{FixedTimeout{}};
  Duration initial_delay{Duration::zero()};
};

/// One peer's last `capacity` inter-arrival intervals, which both the
/// adaptive and the phi rule read (exposed for unit tests).
class ArrivalWindow {
 public:
  explicit ArrivalWindow(std::size_t capacity);

  /// Cold-start seeding for phi (the Akka "first heartbeat estimate"):
  /// pretend the peer just spoke with a plausible cadence, so a peer that
  /// *never* speaks still accrues suspicion instead of sitting at phi = 0.
  void bootstrap(TimePoint now, Duration expected_interval);
  void observe(TimePoint now);

  /// The last arrival plus the mean interval (`period` while no interval is
  /// recorded); nullopt before the first arrival.
  [[nodiscard]] std::optional<TimePoint> predicted_next(Duration period) const;
  /// phi at `now` under N(mean, max(stddev, min_stddev)); 0 while fewer
  /// than two intervals are recorded.
  [[nodiscard]] double phi(TimePoint now, Duration min_stddev) const;
  [[nodiscard]] std::size_t samples() const { return intervals_.size(); }

 private:
  [[nodiscard]] double mean() const;

  std::size_t capacity_;
  std::vector<double> intervals_;  // seconds, ring buffer
  std::size_t next_slot_{0};
  std::optional<TimePoint> last_arrival_;
};

/// A heartbeat-counter detector over `Msg` (HeartbeatMessage or
/// GossipMessage). The message type only decides what a tick sends and
/// which counters a receipt carries; the tick, the stale-counter filter, the
/// rule, the per-peer timers and the suspected table are one code path.
template <typename Msg>
class BaselineDetector final : public core::FailureDetector {
 public:
  using Message = Msg;
  using Config = HeartbeatConfig;

  BaselineDetector(sim::Simulation& simulation, net::Network<Msg>& network,
                   const HeartbeatConfig& config,
                   core::SuspicionObserver* observer = nullptr);

  void start();
  void crash();
  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] ProcessId id() const { return config_.self; }

  /// The highest counter heard per process, this process's own included.
  [[nodiscard]] const std::vector<std::uint64_t>& counters() const {
    return counters_;
  }
  /// Current phi for a peer (PhiAccrual rule only; diagnostics / tests).
  [[nodiscard]] double phi(ProcessId peer) const;

  [[nodiscard]] std::vector<ProcessId> suspected() const override;
  [[nodiscard]] bool is_suspected(ProcessId id) const override;

 private:
  [[nodiscard]] const PhiAccrual* phi_rule() const {
    return std::get_if<PhiAccrual>(&config_.rule);
  }
  void tick();
  void poll();
  void handle(ProcessId from, const Msg& msg);
  void heard(ProcessId peer, std::uint64_t counter);
  void arm_timer(ProcessId peer);
  /// When `peer`'s timer rule suspects it, from its last sign of life.
  [[nodiscard]] TimePoint deadline(ProcessId peer) const;
  void expire(ProcessId peer);
  void set_suspected(ProcessId peer, bool suspect);

  sim::Simulation& sim_;
  net::Network<Msg>& net_;
  HeartbeatConfig config_;
  core::SuspicionObserver* observer_;
  bool crashed_{false};
  bool started_{false};
  std::vector<std::uint64_t> counters_;
  std::vector<ArrivalWindow> windows_;  // empty under FixedTimeout
  std::vector<sim::EventId> timers_;    // pending expiry per peer
  std::vector<bool> suspected_;
};

extern template class BaselineDetector<HeartbeatMessage>;
extern template class BaselineDetector<GossipMessage>;

using HeartbeatDetector = BaselineDetector<HeartbeatMessage>;
using GossipDetector = BaselineDetector<GossipMessage>;

}  // namespace mmrfd::baselines
