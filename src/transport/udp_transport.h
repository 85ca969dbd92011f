// UDP loopback transport: process i binds 127.0.0.1:(base_port + i); every
// datagram travels through the kernel's network stack. This is the
// "messaging boilerplate" a real deployment needs — the repository's answer
// to implementing the paper's exchange over sockets.
//
// The sender of a datagram is its source address, which recvmmsg reports
// per slot: port base_port + i is process i. A datagram from any other
// address (a port outside [base_port, base_port + n), or not loopback IPv4)
// reaches the handler with an id >= n, which RealTimeDetector counts in
// codec.malformed.
//
// Deliberate UDP fit: the protocol tolerates loss of RESPONSEs (a query
// simply waits for other responders) and QUERYs are re-issued every round,
// so datagram semantics cost only detection sharpness, never safety. (The
// formal model assumes reliable channels; on loopback UDP loss is nil. On a
// lossy network the round driver's waves re-send what is lost — see
// core/round_driver.h.)
//
// Scale hardening (the live-cluster subsystem runs 128+ of these per
// machine): poll() waits in ppoll and drains in batches via recvmmsg where
// available, SO_RCVBUF/SO_SNDBUF are sized from n to survive an n-process
// query fan-in landing within one pacing period, and nothing is dropped
// silently.
//
// Wire-level accounting, in the obs registry (UdpConfig::registry): every
// datagram the kernel hands us counts once in udp.datagrams_received /
// udp.bytes_received, and those larger than the receive slot (MSG_TRUNC,
// dropped) also in udp.truncated; udp.recv_errors counts receive failures.
// udp.datagrams_sent / udp.bytes_sent are what sendto() accepted — the
// ground-truth wire bytes: UDP payloads, each one encoded message. Gauge
// udp.rcvbuf_bytes is the SO_RCVBUF the kernel actually granted (doubled on
// Linux).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "obs/metrics_registry.h"
#include "transport/datagram.h"

namespace mmrfd::transport {

struct UdpConfig {
  ProcessId self{0};
  std::uint32_t n{0};
  std::uint16_t base_port{39000};
  /// Shared metrics registry for the udp.* instruments; the transport owns
  /// a private one when null.
  obs::MetricsRegistry* registry{nullptr};
};

class UdpTransport final : public DatagramTransport {
 public:
  explicit UdpTransport(const UdpConfig& config);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// Binds the socket; throws std::system_error on failure (port in use).
  void start() override;
  void stop() override;
  void poll(Duration max_wait) override;

  void set_handler(DatagramHandler handler) override {
    handler_ = std::move(handler);
  }
  void send(ProcessId to, std::span<const std::uint8_t> datagram) override;

 private:
  /// Drains one poll-ready batch; returns the number of datagrams handled.
  std::size_t drain_ready();

  UdpConfig config_;
  DatagramHandler handler_;
  int fd_{-1};

  // Receive slots (allocated once in start()); one slot per recvmmsg entry
  // on Linux, a single slot for the portable recvfrom path.
  std::vector<std::uint8_t> recv_buffers_;

  // Registry-backed counters (config.registry or the private fallback) —
  // same relaxed-atomic cost as the raw members they replaced.
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  obs::Counter* datagrams_received_{nullptr};
  obs::Counter* bytes_received_{nullptr};
  obs::Counter* truncated_{nullptr};
  obs::Counter* recv_errors_{nullptr};
  obs::Counter* datagrams_sent_{nullptr};
  obs::Counter* bytes_sent_{nullptr};
  obs::Gauge* rcvbuf_gauge_{nullptr};
};

}  // namespace mmrfd::transport
