// Simulated hosts: SimHost binds a core's RoundDriver to the simulated
// network and clock. It turns the driver's deadline into a sim.schedule
// event, its queries into net.send_shared (each delivery event references
// the round's shared payload) and its responses into net.send, and adds
// crash-stop (a crashed host stops all activity instantly). Simulated
// channels are reliable, so hosts run without resend waves or the late
// wave: the only timers are a round's pacing events, scheduled from its
// quorum on: the grace's end, which finishes the round, and the pause's
// end, which issues the next (one event does both when the finish
// suspects a new peer, or the grace fills the pause). The golden digests
// pin that event schedule per seed. MmrHost runs the paper's DetectorCore;
// SimpleHost (simple_host.h) the tag-free ablation.
#pragma once

#include <cassert>
#include <utility>
#include <variant>

#include "common/types.h"
#include "core/detector_core.h"
#include "core/properties.h"
#include "core/round_driver.h"
#include "net/network.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "sim/simulation.h"

namespace mmrfd::runtime {

using MmrMessage = core::Message;
using MmrNetwork = net::Network<MmrMessage>;

struct MmrHostConfig {
  core::DetectorConfig detector;
  /// Pacing Delta between a query's termination and the next query.
  Duration pacing{from_millis(1000)};
  /// Relative jitter on the pacing, in [0, 1): each round's pacing is drawn
  /// uniformly from pacing * [1 - jitter, 1 + jitter]. The paper requires
  /// only that inter-query time is "finite but arbitrary" — jitter > 0
  /// exercises that generality (see the ArbitraryPacing tests).
  double pacing_jitter{0.0};
  /// Seed for the jitter stream (derive from the cluster seed).
  std::uint64_t jitter_seed{0};
  /// First query fires at this offset (stagger hosts to avoid lockstep).
  Duration initial_delay{Duration::zero()};
  /// Optional shared metrics registry: the host contributes sim.rounds and
  /// the sim.round_rtt_ns histogram (query start -> quorum, in sim time).
  /// Collection is pure observation — now() reads, no RNG draws, no event
  /// scheduling — so fixed-seed schedules are untouched. Null = off.
  obs::MetricsRegistry* registry{nullptr};
  /// Optional flight recorder for the driver's and the core's trace
  /// records under sim time. Null = off.
  obs::FlightRecorder* recorder{nullptr};
};

template <typename Core>
class SimHost {
 public:
  SimHost(sim::Simulation& simulation, MmrNetwork& network,
          const typename Core::Config& detector,
          const core::RoundDriverConfig& driver, Duration initial_delay,
          core::SuspicionObserver* observer)
      : sim_(simulation),
        net_(network),
        driver_(detector, driver),
        initial_delay_(initial_delay) {
    driver_.core().set_observer(observer);
    net_.set_handler(id(), [this](ProcessId from, const MmrMessage& msg) {
      handle(from, msg);
    });
  }

  SimHost(const SimHost&) = delete;
  SimHost& operator=(const SimHost&) = delete;

  /// Schedules the first query; must be called once before the run.
  void start() {
    assert(!started_);
    started_ = true;
    sim_.schedule(initial_delay_, [this] { advance(); });
  }

  /// Crash-stop: silences this host and tells the network to drop deliveries.
  void crash() {
    crashed_ = true;
    net_.crash(id());
  }

  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] ProcessId id() const { return detector().config().self; }
  [[nodiscard]] const Core& detector() const { return driver_.core(); }
  [[nodiscard]] Core& detector() { return driver_.core(); }

 private:
  /// Fires the driver's deadline: the first round, the grace's end or the
  /// pause's end.
  void advance() {
    if (crashed_) return;
    // send_shared draws the same per-recipient randomness as send, so a
    // fixed-seed schedule does not depend on which payload a peer shares.
    const auto send = [this](core::Outgoing&& q) {
      net_.send_shared(id(), q.to, std::move(q.query));
    };
    driver_.on_deadline(sim_.now(), net_.topology().neighbors(id()), send);
    // A finished round waits out its pause; with f = n - 1 the issuer's
    // own response is the whole quorum.
    if (detector().query_terminated()) pace();
  }

  /// Schedules advance() at the driver's next pacing deadline.
  void pace() {
    sim_.schedule_at(*driver_.deadline(), [this] { advance(); });
  }

  void handle(ProcessId from, const MmrMessage& msg) {
    if (crashed_) return;
    if (const auto* q = std::get_if<core::QueryMessage>(&msg)) {
      net_.send(id(), from, MmrMessage{driver_.handle_query(from, *q)});
    } else if (driver_.handle_response(sim_.now(), from,
                                       std::get<core::ResponseMessage>(msg))) {
      pace();
    }
  }

  sim::Simulation& sim_;
  MmrNetwork& net_;
  core::RoundDriver<Core> driver_;
  Duration initial_delay_;
  bool crashed_{false};
  bool started_{false};
};

class MmrHost : public SimHost<core::DetectorCore> {
 public:
  /// `recorder` receives every round's winning set (MP checking).
  MmrHost(sim::Simulation& simulation, MmrNetwork& network,
          const MmrHostConfig& config,
          core::PropertyRecorder* recorder = nullptr,
          core::SuspicionObserver* observer = nullptr);
};

}  // namespace mmrfd::runtime
