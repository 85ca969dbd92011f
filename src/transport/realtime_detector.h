// RealTimeDetector — the adapter that binds a DetectorCore's RoundDriver to a
// DatagramTransport (UdpTransport, FaultyTransport or an InMemoryHub
// endpoint): the exact state machine verified under simulation, bound to
// sockets and one protocol thread.
//
// The thread runs the paper's two tasks as one loop, as the simulator does: it
// fires the driver's deadline and sends what the driver planned (T1), then
// polls the transport until the next deadline, handling each query (T2) and
// response inline. A quorum moves the deadline, so the loop looks at it again
// after every poll. The first round waits a share of one pause drawn inside
// the node's own 1/n stratum of it, so the nodes' rounds start out of step
// and evenly spread. It does not wait for peers to bind: a query to an
// unbound peer is lost until the round's first resend wave, so the caller
// starts the detector once its peers are up (mmrfd-node waits for its
// Supervisor's release). The mutex guards the driver only against
// readers on other threads (suspected(), is_suspected(),
// rounds_completed()).
//
// It is the node's one codec hop. A fan-out encodes each distinct payload
// the driver planned once, at its first recipient, and sends those bytes to
// every peer that shares it, in the driver's peer order; each response is
// encoded once. Every received datagram is decoded here: one that does not
// decode, or whose sender is not a member (an id >= n: an address the
// datagram layer could not map), is dropped unanswered and counted in
// codec.malformed.
//
// Only what needs the transport layer stays here: the origin_seq piggyback
// and the rt.* registry instruments: full/delta query encodings and codec
// bytes sent (socket-level egress counts as udp.*), queries and responses
// received and sent, need_full resync requests sent (a delta named a base we
// never acknowledged) and received, finished rounds, resend waves (the late
// wave in the grace included), and the rt.round_rtt_ns histogram (issue to
// the quorum-completing response, sampled as that response is handled).
//
// It writes no trace record: config.recorder goes to the driver and its core,
// which record every protocol step once. It attaches no SuspicionObserver:
// the core's kSuspectAdd/kSuspectDrop records, kept whole by the recorder's
// suspicion section, are the live path's suspicion history.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/detector_core.h"
#include "core/round_driver.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "transport/datagram.h"

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
  /// this is retransmission, not a timeout. Setting it also turns on the
  /// late wave halfway through each round's grace (the post-quorum share
  /// of the pause in which late responses still count), which re-sends the
  /// query to the silent peers not yet suspected. Must be positive: zero
  /// would fire the waves back to back.
  Duration resend{from_millis(500)};
  /// Shared metrics registry for the rt.* and codec.* instruments; the
  /// detector owns a private one when null. Sharing one registry across the node's whole
  /// stack gives the report writer a single snapshot to embed.
  obs::MetricsRegistry* registry{nullptr};
  /// Flight recorder handed to the round driver and its core, the ring's
  /// only writers (may be null).
  obs::FlightRecorder* recorder{nullptr};
};

class RealTimeDetector final : public core::FailureDetector {
 public:
  /// Installs the transport's datagram handler. Throws
  /// std::invalid_argument unless config.resend is positive (the round
  /// driver's check), and for whatever DetectorCore rejects.
  RealTimeDetector(DatagramTransport& transport, const RealTimeConfig& config);
  ~RealTimeDetector() override;

  RealTimeDetector(const RealTimeDetector&) = delete;
  RealTimeDetector& operator=(const RealTimeDetector&) = delete;

  /// Starts the transport and the protocol thread.
  void start();
  /// Stops the thread, within one poll wait (50 ms at most), and the
  /// transport. Idempotent.
  void stop();

  [[nodiscard]] std::vector<ProcessId> suspected() const override;
  [[nodiscard]] bool is_suspected(ProcessId id) const override;

  /// Rounds completed so far (monotone; for liveness checks in tests).
  [[nodiscard]] std::uint64_t rounds_completed() const;

  /// The registry backing the rt.* and codec.* instruments
  /// (config.registry or the private fallback).
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return *registry_;
  }

 private:
  void run();
  /// Encodes and sends the transmissions the driver planned.
  void transmit();
  /// Decodes one datagram and handles the query or response it holds.
  void on_datagram(ProcessId from, std::span<const std::uint8_t> datagram);

  DatagramTransport& transport_;
  RealTimeConfig config_;

  // Instruments are registry-backed relaxed atomics, not mutex-guarded
  // state: the protocol thread bumps them outside the lock and report-flush
  // threads snapshot the registry without contending on it. Resolved once,
  // valid for the registry's life.
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
  obs::Counter* malformed_{&registry_->counter("codec.malformed")};

  /// Guards driver_: the protocol thread, its only writer, changes it under
  /// the lock and may read it without; other threads read its core under
  /// the lock.
  mutable std::mutex mutex_;
  core::RoundDriver<core::DetectorCore> driver_;
  std::vector<core::Outgoing> outgoing_;  // protocol thread only
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace mmrfd::transport
