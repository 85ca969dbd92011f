// Real-time transport abstraction (the deployment path, as opposed to the
// discrete-event simulation used by the experiments).
//
// Implementations deliver *encoded* datagrams — send() serializes through the
// codec and the receive path deserializes, so the simulator-verified protocol
// core runs over exactly the bytes a production deployment would exchange.
#pragma once

#include <functional>

#include "common/types.h"
#include "transport/codec.h"

namespace mmrfd::transport {

class Transport {
 public:
  using Handler = std::function<void(ProcessId from, const WireMessage&)>;

  virtual ~Transport() = default;

  /// Installs the receive callback, invoked inside poll() on the thread
  /// that called it. Must be set before start().
  virtual void set_handler(Handler handler) = 0;

  virtual void start() = 0;
  virtual void stop() = 0;

  /// Waits at most `max_wait` for a message, then hands every ready one to
  /// the handler on the calling thread (DatagramTransport::poll).
  virtual void poll(Duration max_wait) = 0;

  /// Sends to one peer; the handler may call it.
  virtual void send(ProcessId to, const WireMessage& msg) = 0;
  /// Sends to every other process; the handler may call it.
  virtual void broadcast(const WireMessage& msg) = 0;

  [[nodiscard]] virtual ProcessId self() const = 0;
  [[nodiscard]] virtual std::uint32_t cluster_size() const = 0;
};

}  // namespace mmrfd::transport
