// RealTimeDetector — the thread adapter that binds a DetectorCore's
// RoundDriver to a real Transport (UDP or in-memory threads): the exact
// state machine verified under simulation, bound to sockets and threads.
//
// One driver thread sleeps on a condition variable until the driver's
// deadline, fires it under the mutex and sends what the driver planned
// outside it; the transport's receive thread feeds on_datagram() and wakes
// the driver thread when a quorum moves the deadline. Only what needs the
// transport layer stays here: the byte-sized kQueryTx/kResponseTx/
// kResponseRx stamps, the origin_seq piggyback, and the rt.* registry
// instruments: full/delta query encodings and codec bytes sent (framing and
// retransmits below count as rel.*/udp.*), queries and responses received
// and sent, need_full resync requests sent (a delta named a base we never
// acknowledged) and received, finished rounds, resend waves, and the
// rt.round_rtt_ns histogram (issue to the quorum-completing response,
// sampled on the receive thread).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/detector_core.h"
#include "core/round_driver.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "transport/transport.h"

namespace mmrfd::transport {

struct RealTimeConfig {
  core::DetectorConfig detector;
  /// Inter-query pacing Delta (wall clock).
  Duration pacing{from_millis(100)};
  /// Loss recovery for real (unreliable) transports: while a query is short
  /// of quorum, re-issue it to the still-silent peers at this interval. The
  /// paper's model assumes reliable channels; a lost datagram (startup race
  /// — a peer's socket not bound yet — or receive-buffer overflow under
  /// fan-in) would otherwise wedge the round FOREVER, because the time-free
  /// protocol never re-sends on its own. Re-issuing is idempotent (same
  /// seq; responders are deduplicated) and carries no failure judgement —
  /// this is retransmission, not a timeout. Must be positive: zero would
  /// fire the waves back to back.
  Duration resend{from_millis(500)};
  /// Shared metrics registry for the rt.* instruments; the detector owns a
  /// private one when null. Sharing one registry across the node's whole
  /// stack gives the report writer a single snapshot to embed.
  obs::MetricsRegistry* registry{nullptr};
  /// Flight recorder for query/response/resend traces, forwarded to the
  /// core for its round/suspicion records too (may be null).
  obs::FlightRecorder* recorder{nullptr};
};

class RealTimeDetector final : public core::FailureDetector {
 public:
  /// Throws std::invalid_argument unless config.resend is positive (the
  /// round driver's check), and for whatever DetectorCore rejects.
  RealTimeDetector(Transport& transport, const RealTimeConfig& config);
  ~RealTimeDetector() override;

  RealTimeDetector(const RealTimeDetector&) = delete;
  RealTimeDetector& operator=(const RealTimeDetector&) = delete;

  /// Starts the transport and the query loop.
  void start();
  /// Stops the loop and the transport. Idempotent.
  void stop();

  /// Registers a suspicion-transition observer (forwarded to the core).
  /// Call before start(); callbacks fire with the detector mutex held, so
  /// the observer must not call back into this detector.
  void set_observer(core::SuspicionObserver* observer);

  [[nodiscard]] std::vector<ProcessId> suspected() const override;
  [[nodiscard]] bool is_suspected(ProcessId id) const override;

  /// Rounds completed so far (monotone; for liveness checks in tests).
  [[nodiscard]] std::uint64_t rounds_completed() const;

  /// The registry backing the rt.* instruments (config.registry or the
  /// private fallback).
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return *registry_;
  }

 private:
  void driver_loop();
  /// Sends the transmissions the driver planned, with `lock` released.
  void transmit(std::unique_lock<std::mutex>& lock);
  void on_datagram(ProcessId from, const WireMessage& msg);
  void trace(obs::TraceKind kind, std::uint32_t a, std::uint32_t b) const {
    if (config_.recorder != nullptr) config_.recorder->record(kind, a, b);
  }

  Transport& transport_;
  RealTimeConfig config_;
  std::vector<ProcessId> peers_;  // every id but self: the fan-out order

  // Instruments are registry-backed relaxed atomics, not mutex-guarded
  // state: the driver thread bumps the tx side outside the lock (sends
  // happen unlocked) and report-flush threads snapshot the registry without
  // contending on the lock. Resolved once, valid for the registry's life.
  std::unique_ptr<obs::MetricsRegistry> own_registry_{
      config_.registry == nullptr ? std::make_unique<obs::MetricsRegistry>()
                                  : nullptr};
  obs::MetricsRegistry* registry_{
      config_.registry != nullptr ? config_.registry : own_registry_.get()};
  obs::Counter* full_queries_sent_{&registry_->counter("rt.full_queries_sent")};
  obs::Counter* delta_queries_sent_{
      &registry_->counter("rt.delta_queries_sent")};
  obs::Counter* queries_received_{&registry_->counter("rt.queries_received")};
  obs::Counter* responses_received_{
      &registry_->counter("rt.responses_received")};
  obs::Counter* responses_sent_{&registry_->counter("rt.responses_sent")};
  obs::Counter* need_full_sent_{&registry_->counter("rt.need_full_sent")};
  obs::Counter* need_full_received_{
      &registry_->counter("rt.need_full_received")};
  obs::Counter* query_bytes_sent_{&registry_->counter("rt.query_bytes_sent")};
  obs::Counter* response_bytes_sent_{
      &registry_->counter("rt.response_bytes_sent")};

  mutable std::mutex mutex_;
  std::condition_variable quorum_cv_;
  core::RoundDriver<core::DetectorCore> driver_;
  bool running_{false};
  bool stopping_{false};
  std::vector<core::Outgoing> outgoing_;  // driver thread only
  std::thread driver_thread_;
};

}  // namespace mmrfd::transport
