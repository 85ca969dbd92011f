// RoundDriver — one process's query rounds as a sans-I/O state machine.
//
// The paper's detector is one loop per process: issue a query, wait for
// n - f responses, pause for a finite but arbitrary time, suspect whoever
// stayed silent. RoundDriver runs that loop around a core (DetectorCore or
// the tag-free SimpleDetectorCore) with no clock, socket or simulator: an
// adapter passes in the time and what it receives, calls on_deadline()
// whenever deadline() has come, and transmits what `send` receives, which
// goes out in the order of the `peers` it passes (on the full mesh every id
// but self, ascending and stored nowhere: Topology::full, DetectorCore::
// known()).
//
// The first deadline issues the first round. While a round is short of
// quorum the deadline is its next resend wave (if a resend interval is
// set). At the quorum the driver draws the round's jittered pause P and
// splits it at a grace g = min(P, max(P/2, R)), R being the round's own
// issue-to-quorum span: late responses count until quorum + g, when
// finish_round suspects the silent peers, and the next round issues at
// quorum + P. When finish_round has just suspected a new peer the next
// round issues at once instead, so the fresh suspicion reaches every peer
// without waiting out the pause. Consecutive issues stay at least R + P/2
// apart. A wave re-sends the query, full encoding, to the silent peers;
// only the first wave leaves out the give-up policy's skips, since a round
// still short of quorum suggests they were wrong. With waves on, one late
// wave halfway through the grace re-sends to the peers still silent and
// not suspected, the ones finish_round would newly suspect: a datagram lost
// in a round that reached its quorum anyway is re-sent before it costs a
// false suspicion. Re-sending is idempotent and judges nothing, so the
// detector stays time-free, and the retransmission that loss needs lives
// here alone. Every causal trace record is taken here, before its send.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <variant>
#include <vector>

#include "common/peer_range.h"
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

/// One query transmission. A round builds each distinct encoding once: the
/// full one, and one delta per acknowledged base epoch. Every peer that
/// gets it shares that immutable payload.
struct Outgoing {
  ProcessId to;
  std::shared_ptr<const Message> query;
};

struct RoundDriverConfig {
  Duration pacing{from_millis(1000)};  ///< quorum-to-next-issue pause
  /// Each pause is drawn from pacing * [1 - jitter, 1 + jitter], one draw
  /// per round; 0 draws nothing.
  double pacing_jitter{0.0};
  std::uint64_t jitter_seed{0};  ///< mixed with the core's own id
  /// Resend-wave interval while a round is short of quorum; must be
  /// positive. Also turns on the late wave at half the grace. Unset: no
  /// waves (the simulator's reliable channels).
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
  /// fires a resend wave while the round is short of quorum, or the late
  /// wave, or at the grace's end finishes the round (and issues the next
  /// one at once if it suspected a new peer), or at the pause's end issues
  /// the next round.
  template <typename Send>
  void on_deadline(TimePoint now, PeerRange peers, Send&& send) {
    if (!deadline_ || now < *deadline_) return;
    switch (step_) {
      case Step::kIssue:
        return issue(now, peers, send);
      case Step::kResend:
        deadline_ = now + *config_.resend;  // no deadline here without one
        return wave(peers, send, [&](ProcessId p) {
          return !core_.responded(p) && !(waves_ == 1 && skipped(p));
        });
      case Step::kLateWave:
        step_ = Step::kFinish;
        deadline_ = grace_end_;
        return wave(peers, send, [&](ProcessId p) {
          return !core_.responded(p) && !core_.is_suspected(p);
        });
      case Step::kFinish:
        add(config_.rounds);
        if (core_.finish_round() || now >= pause_end_) {
          return issue(now, peers, send);
        }
        step_ = Step::kIssue;
        deadline_ = pause_end_;
        return;
    }
  }

  /// Merges a QUERY; returns the RESPONSE to send back.
  [[nodiscard]] ResponseMessage handle_query(ProcessId from,
                                             const QueryMessage& query) {
    trace(obs::TraceKind::kQueryRx, from.value, low32(query.seq));
    const ResponseMessage response = core_.on_query(from, query);
    trace(obs::TraceKind::kResponseTx, from.value, low32(response.seq));
    return response;
  }

  /// Feeds a RESPONSE. True exactly at the round's quorum, which moves the
  /// deadline to the late wave, or without waves to the end of the grace.
  bool handle_response(TimePoint now, ProcessId from,
                       const ResponseMessage& response) {
    trace(obs::TraceKind::kResponseRx, from.value, low32(response.seq));
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
  void issue(TimePoint now, PeerRange peers, Send& send) {
    core_.begin_query();
    round_start_ = now;
    waves_ = 0;
    step_ = Step::kResend;
    deadline_.reset();
    if (config_.resend) deadline_ = now + *config_.resend;
    for (const ProcessId to : peers) {
      if (skipped(to)) continue;
      auto query = payload_for(to);
      trace(obs::TraceKind::kQueryTx, to.value, round_seq());
      send(Outgoing{to, std::move(query)});
    }
    payloads_.clear();
    // f = n - 1: the issuer's own response is the whole quorum.
    if (core_.query_terminated()) on_quorum(now);
  }

  /// Counts a wave and re-sends the round's full encoding, in `peers`
  /// order, to every peer `target` picks; with none it sends nothing.
  template <typename Send, typename Target>
  void wave(PeerRange peers, Send& send, Target target) {
    ++waves_;
    const auto targets = std::count_if(peers.begin(), peers.end(), target);
    if (targets == 0) return;
    add(config_.resend_waves);
    trace(obs::TraceKind::kResendWave, waves_,
          static_cast<std::uint32_t>(targets));
    const auto full = std::make_shared<const Message>(core_.full_query());
    for (const ProcessId to : peers) {
      if (!target(to)) continue;
      trace(obs::TraceKind::kQueryTx, to.value, round_seq());
      send(Outgoing{to, full});
    }
  }

  /// This round's payload for `to`, keyed by the epoch it builds on: 0 for
  /// the full encoding, else the epoch `to` acknowledged (a delta).
  std::shared_ptr<const Message> payload_for(ProcessId to) {
    const Epoch base = core_.full_query_needed(to) ? 0 : core_.acked_epoch(to);
    for (const auto& [b, payload] : payloads_) {
      if (b == base) return payload;
    }
    return payloads_
        .emplace_back(base, std::make_shared<const Message>(
                                base == 0 ? core_.full_query()
                                          : core_.query_for(to)))
        .second;
  }

  /// The quorum instant: winning set, kQuorum, round RTT, pacing draw, and
  /// the grace split: the late wave's deadline with waves on, or else the
  /// grace's end.
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

  /// What the deadline does next.
  enum class Step : std::uint8_t { kIssue, kResend, kLateWave, kFinish };

  Core core_;
  RoundDriverConfig config_;
  Xoshiro256 jitter_rng_;
  TimePoint round_start_{kTimeZero};
  std::optional<TimePoint> deadline_{kTimeZero};  ///< first round: at once
  Step step_{Step::kIssue};
  TimePoint grace_end_{kTimeZero};  ///< quorum + g: finish_round
  TimePoint pause_end_{kTimeZero};  ///< quorum + P: the next issue
  std::uint32_t waves_{0};  ///< resend waves fired this round
  /// The issuing round's payloads by base epoch; empty between issues.
  std::vector<std::pair<Epoch, std::shared_ptr<const Message>>> payloads_;
};

extern template class RoundDriver<DetectorCore>;
extern template class RoundDriver<SimpleDetectorCore>;

}  // namespace mmrfd::core
