// TypedTransport — the codec layer: adapts any DatagramTransport (bytes) to
// the typed messages (WireMessage) RealTimeDetector consumes, so the
// simulator-verified protocol core runs over exactly the bytes a deployment
// exchanges. Each datagram is one encoded message; its sender is the one
// the datagram layer names. A datagram that does not decode, or whose
// sender is not a member (an id >= n: an address the datagram layer could
// not map), is dropped, never surfaced, and counted in the codec.malformed
// registry counter.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "common/peer_range.h"
#include "common/types.h"
#include "obs/metrics_registry.h"
#include "transport/codec.h"
#include "transport/datagram.h"

namespace mmrfd::transport {

class TypedTransport final {
 public:
  using Handler = std::function<void(ProcessId from, const WireMessage&)>;

  /// `registry` receives the codec.* counters; the layer owns a private one
  /// when null.
  explicit TypedTransport(DatagramTransport& datagrams,
                          obs::MetricsRegistry* registry = nullptr)
      : datagrams_(datagrams) {
    if (registry == nullptr) {
      own_registry_ = std::make_unique<obs::MetricsRegistry>();
      registry = own_registry_.get();
    }
    malformed_ = &registry->counter("codec.malformed");
  }

  // The datagram handler captures `this`.
  TypedTransport(const TypedTransport&) = delete;
  TypedTransport& operator=(const TypedTransport&) = delete;

  /// Installs the receive callback, invoked inside poll() on the thread
  /// that called it. Must be set before start().
  void set_handler(Handler handler) {
    handler_ = std::move(handler);
    datagrams_.set_handler(
        [this](ProcessId from, std::span<const std::uint8_t> datagram) {
          on_datagram(from, datagram);
        });
  }

  void start() { datagrams_.start(); }
  void stop() { datagrams_.stop(); }
  /// Waits at most `max_wait` for a datagram, then hands every ready one to
  /// the handler on the calling thread (DatagramTransport::poll).
  void poll(Duration max_wait) { datagrams_.poll(max_wait); }

  /// Sends to one peer; the handler may call it.
  void send(ProcessId to, const WireMessage& msg) {
    const auto bytes = encode_message(msg);
    datagrams_.send(to, bytes);
  }

  /// Sends to every other process; the handler may call it.
  void broadcast(const WireMessage& msg) {
    const auto bytes = encode_message(msg);
    for (ProcessId to : PeerRange::all_but(self(), cluster_size())) {
      datagrams_.send(to, bytes);
    }
  }

  [[nodiscard]] ProcessId self() const { return datagrams_.self(); }
  [[nodiscard]] std::uint32_t cluster_size() const {
    return datagrams_.cluster_size();
  }

 private:
  void on_datagram(ProcessId from, std::span<const std::uint8_t> datagram) {
    std::optional<WireMessage> message;
    if (from.value < cluster_size()) message = decode_message(datagram);
    if (!message) {
      malformed_->add(1);
      return;
    }
    handler_(from, *message);
  }

  DatagramTransport& datagrams_;
  Handler handler_;
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  obs::Counter* malformed_{nullptr};
};

}  // namespace mmrfd::transport
