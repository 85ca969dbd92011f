// TypedTransport — the codec layer: adapts any DatagramTransport (bytes) to
// the typed Transport interface (WireMessage) the protocol drivers consume.
// Malformed datagrams are dropped, never surfaced, and counted in the
// codec.malformed registry counter.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "common/peer_range.h"
#include "obs/metrics_registry.h"
#include "transport/datagram.h"
#include "transport/transport.h"

namespace mmrfd::transport {

class TypedTransport final : public Transport {
 public:
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

  void set_handler(Handler handler) override {
    handler_ = std::move(handler);
    datagrams_.set_handler([this](std::span<const std::uint8_t> datagram) {
      on_datagram(datagram);
    });
  }

  void start() override { datagrams_.start(); }
  void stop() override { datagrams_.stop(); }
  void poll(Duration max_wait) override { datagrams_.poll(max_wait); }

  void send(ProcessId to, const WireMessage& msg) override {
    const auto bytes = encode_envelope(self(), msg);
    datagrams_.send(to, bytes);
  }

  void broadcast(const WireMessage& msg) override {
    const auto bytes = encode_envelope(self(), msg);
    for (ProcessId to : PeerRange::all_but(self(), cluster_size())) {
      datagrams_.send(to, bytes);
    }
  }

  [[nodiscard]] ProcessId self() const override { return datagrams_.self(); }
  [[nodiscard]] std::uint32_t cluster_size() const override {
    return datagrams_.cluster_size();
  }

 private:
  void on_datagram(std::span<const std::uint8_t> datagram) {
    auto decoded = decode_envelope(datagram);
    if (!decoded || decoded->sender.value >= cluster_size()) {
      malformed_->add(1);
      return;
    }
    handler_(decoded->sender, decoded->message);
  }

  DatagramTransport& datagrams_;
  Handler handler_;
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  obs::Counter* malformed_{nullptr};
};

}  // namespace mmrfd::transport
