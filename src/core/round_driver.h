// RoundDriver — one process's query rounds as a sans-I/O state machine.
//
// The paper's detector is one loop per process: issue a query, wait for
// n - f responses, pause for a finite but arbitrary time, suspect whoever
// stayed silent. RoundDriver runs that loop around a core (DetectorCore or
// the tag-free SimpleDetectorCore) with no clock, socket or simulator: an
// adapter passes in the time and what it receives, calls on_deadline()
// whenever deadline() has come, and transmits what `send` receives, which
// goes out in the order of the `peers` it passes.
//
// The first deadline issues the first round. While a round is short of
// quorum the deadline is its next resend wave (if a resend interval is
// set); after the quorum it ends the jittered pacing pause, finishing the
// round and issuing the next. A wave re-sends the query, full encoding, to
// the silent peers; only the first wave leaves out the give-up policy's
// skips, since a round still short of quorum suggests they were wrong.
// Re-sending is idempotent and judges nothing, so the detector stays
// time-free. Every causal trace record is taken here, before its send.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <variant>

#include "common/rng.h"
#include "common/types.h"
#include "core/detector_core.h"
#include "core/properties.h"
#include "core/simple_detector.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"

namespace mmrfd::core {

/// A protocol message on any wire, simulated or real.
using Message = std::variant<QueryMessage, ResponseMessage>;

/// One query transmission: the round's shared full encoding, or else the
/// peer's own delta (which the adapter may move from).
struct Outgoing {
  ProcessId to;
  std::shared_ptr<const Message> full;
  Message delta;
};

struct RoundDriverConfig {
  Duration pacing{from_millis(1000)};  ///< pause after a round's quorum
  /// Each pause is drawn from pacing * [1 - jitter, 1 + jitter], one draw
  /// per round; 0 draws nothing.
  double pacing_jitter{0.0};
  std::uint64_t jitter_seed{0};  ///< mixed with the core's own id
  /// Resend-wave interval while a round is short of quorum; must be
  /// positive. Unset: no waves (the simulator's reliable channels).
  std::optional<Duration> resend;
  obs::FlightRecorder* recorder{nullptr};  ///< the core traces here too
  PropertyRecorder* properties{nullptr};   ///< winning set at each quorum
  obs::Histogram* round_rtt_ns{nullptr};   ///< issue-to-quorum spans
  obs::Counter* quorums{nullptr};          ///< rounds that reached quorum
  obs::Counter* rounds{nullptr};           ///< rounds finished
  obs::Counter* resend_waves{nullptr};     ///< waves that re-sent a query
};

template <typename Core>
class RoundDriver {
 public:
  /// Throws std::invalid_argument for a non-positive resend interval, and
  /// whatever the core rejects.
  RoundDriver(const typename Core::Config& core,
              const RoundDriverConfig& config)
      : core_(core),
        config_(config),
        jitter_rng_(derive_seed(config.jitter_seed, "host.jitter",
                                core.self.value)) {
    if (config.resend && *config.resend <= Duration::zero()) {
      throw std::invalid_argument("RoundDriverConfig: resend must be > 0");
    }
    assert(config.pacing_jitter >= 0.0 && config.pacing_jitter < 1.0);
    if constexpr (requires { core_.set_recorder(config.recorder); }) {
      core_.set_recorder(config.recorder);
    }
  }

  [[nodiscard]] Core& core() { return core_; }
  [[nodiscard]] const Core& core() const { return core_; }
  /// When on_deadline() is next due; unset while a round without resend
  /// waves waits for its quorum.
  [[nodiscard]] std::optional<TimePoint> deadline() const { return deadline_; }

  /// Does nothing before the deadline. Then: issues the first round, or
  /// fires a resend wave while the round is short of quorum, or finishes
  /// the round and issues the next.
  template <typename Send>
  void on_deadline(TimePoint now, std::span<const ProcessId> peers,
                   Send&& send) {
    if (!deadline_ || now < *deadline_) return;
    if (core_.query_seq() == 0) return issue(now, peers, send);
    if (core_.query_terminated()) {
      core_.finish_round();
      add(config_.rounds);
      return issue(now, peers, send);
    }
    deadline_ = now + *config_.resend;  // no deadline here without one
    ++waves_;
    const auto silent = [&](ProcessId p) {
      return !core_.responded(p) && !(waves_ == 1 && skipped(p));
    };
    const auto targets = std::count_if(peers.begin(), peers.end(), silent);
    if (targets == 0) return;
    add(config_.resend_waves);
    trace(obs::TraceKind::kResendWave, waves_,
          static_cast<std::uint32_t>(targets));
    const auto full = std::make_shared<const Message>(core_.full_query());
    for (const ProcessId to : peers) {
      if (!silent(to)) continue;
      trace(obs::TraceKind::kQueryTxSeq, to.value, round_seq());
      send(Outgoing{to, full, {}});
    }
  }

  /// Merges a QUERY; returns the RESPONSE to send back.
  [[nodiscard]] ResponseMessage handle_query(ProcessId from,
                                             const QueryMessage& query) {
    trace(obs::TraceKind::kQueryRx, from.value, low32(query.seq));
    const ResponseMessage response = core_.on_query(from, query);
    trace(obs::TraceKind::kResponseTxSeq, from.value, low32(response.seq));
    return response;
  }

  /// Feeds a RESPONSE. True exactly at the round's quorum, which moves the
  /// deadline to the end of the pacing pause.
  bool handle_response(TimePoint now, ProcessId from,
                       const ResponseMessage& response) {
    trace(obs::TraceKind::kResponseRxSeq, from.value, low32(response.seq));
    if (response.origin_seq != 0) {
      trace(obs::TraceKind::kPeerRound, from.value, low32(response.origin_seq));
    }
    if (!core_.on_response(from, response)) return false;
    on_quorum(now);
    return true;
  }

 private:
  /// Starts a round and hands its queries to `send`, in `peers` order.
  template <typename Send>
  void issue(TimePoint now, std::span<const ProcessId> peers, Send& send) {
    core_.begin_query();
    round_start_ = now;
    waves_ = 0;
    deadline_.reset();
    if (config_.resend) deadline_ = now + *config_.resend;
    std::shared_ptr<const Message> full;
    for (const ProcessId to : peers) {
      if (skipped(to)) continue;
      Outgoing out{to, nullptr, {}};
      if (core_.full_query_needed(to)) {
        if (!full) full = std::make_shared<const Message>(core_.full_query());
        out.full = full;
      } else {
        out.delta = core_.query_for(to);
      }
      trace(obs::TraceKind::kQueryTxSeq, to.value, round_seq());
      send(std::move(out));
    }
    // f = n - 1: the issuer's own response is the whole quorum.
    if (core_.query_terminated()) on_quorum(now);
  }

  /// The quorum instant: winning set, kQuorum, round RTT, pacing draw.
  void on_quorum(TimePoint now);

  [[nodiscard]] bool skipped(ProcessId peer) const {
    if constexpr (requires { core_.should_query(peer); }) {
      return !core_.should_query(peer);
    } else {
      return false;
    }
  }
  [[nodiscard]] std::uint32_t round_seq() const {
    return low32(core_.query_seq());
  }
  static std::uint32_t low32(std::uint64_t v) {
    return static_cast<std::uint32_t>(v);
  }
  static void add(obs::Counter* counter) {
    if (counter != nullptr) counter->add(1);
  }
  void trace(obs::TraceKind kind, std::uint32_t a, std::uint32_t b) const {
    if (config_.recorder != nullptr) config_.recorder->record(kind, a, b);
  }

  Core core_;
  RoundDriverConfig config_;
  Xoshiro256 jitter_rng_;
  TimePoint round_start_{kTimeZero};
  std::optional<TimePoint> deadline_{kTimeZero};  ///< first round: at once
  std::uint32_t waves_{0};  ///< resend waves fired this round
};

extern template class RoundDriver<DetectorCore>;
extern template class RoundDriver<SimpleDetectorCore>;

}  // namespace mmrfd::core
