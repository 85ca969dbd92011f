// RealTimeDetector — the DetectorCore driven by wall-clock pacing over a
// real Transport (UDP or in-memory threads). The production-facing face of
// the library: the exact state machine verified under simulation, bound to
// sockets and threads.
//
// Threading model: one driver thread runs the query loop (broadcast, wait
// for quorum on a condition variable, pace, finish round); the transport's
// receive thread funnels into on_datagram(). A single mutex guards the core
// — its per-event work is microseconds (see bench/micro_core), far below
// any contention concern at protocol rates.
//
// Counters live only in the obs registry (RealTimeConfig::registry), as
// rt.*: per-peer full/delta query encodings sent, queries/responses
// received, responses sent, need_full resync requests sent (a delta named a
// base we never acknowledged) and received, codec bytes handed to the
// transport (framing and retransmits below count as rel.*/udp.*), rounds,
// resend waves, and the rt.round_rtt_ns histogram.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/detector_core.h"
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
  /// this is retransmission, not a timeout.
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
  void on_datagram(ProcessId from, const WireMessage& msg);
  void trace(obs::TraceKind kind, std::uint32_t a, std::uint32_t b) const {
    if (recorder_ != nullptr) recorder_->record(kind, a, b);
  }

  Transport& transport_;
  RealTimeConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable quorum_cv_;
  core::DetectorCore core_;
  bool running_{false};
  bool stopping_{false};
  std::thread driver_;

  // Instruments are registry-backed relaxed atomics, not mutex-guarded
  // state: the driver thread bumps the tx side outside the core lock (sends
  // happen unlocked) and report-flush threads snapshot the registry without
  // contending on the core lock. References are resolved once in the
  // constructor and stay valid for the registry's lifetime.
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  obs::MetricsRegistry* registry_{nullptr};
  obs::FlightRecorder* recorder_{nullptr};
  obs::Counter* full_queries_sent_{nullptr};
  obs::Counter* delta_queries_sent_{nullptr};
  obs::Counter* queries_received_{nullptr};
  obs::Counter* responses_received_{nullptr};
  obs::Counter* responses_sent_{nullptr};
  obs::Counter* need_full_sent_{nullptr};
  obs::Counter* need_full_received_{nullptr};
  obs::Counter* query_bytes_sent_{nullptr};
  obs::Counter* response_bytes_sent_{nullptr};
  obs::Counter* rounds_counter_{nullptr};
  obs::Counter* resend_waves_{nullptr};
  obs::Histogram* round_rtt_ns_{nullptr};
};

}  // namespace mmrfd::transport
