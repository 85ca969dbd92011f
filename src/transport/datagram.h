// Byte-level transport abstraction.
//
// The transport stack has two layers under the detector; each counts into
// the node's one obs::MetricsRegistry under its own prefix:
//
//   RealTimeDetector            protocol driver and codec     rt.*, codec.*
//        │ (sender, bytes), through DatagramTransport
//   [FaultyTransport]           optional: injected channel faults    fault.*
//        │ (sender, bytes), through DatagramTransport
//   UdpTransport / InMemoryHub  sockets / in-process queues          udp.*
//
// DatagramTransport below is the stack's one interface: it is where tests
// swap sockets for InMemoryHub queues and insert FaultyTransport or a
// recording decorator.
//
// A datagram carries only its message. The bottom layer names the sender
// from where the datagram came (UdpTransport: the source port, peer i
// sending from base_port + i; InMemoryHub: the sending endpoint), so no
// byte on the wire repeats the address and no corrupted byte can blame a
// datagram on another peer. An address the transport cannot map comes up
// as an id >= n, which RealTimeDetector drops as malformed.
//
// No layer owns a thread. The node's one protocol thread (RealTimeDetector)
// calls poll(), which runs the receive path down the stack and hands each
// ready datagram up to the handler on that thread, as the simulator runs a
// process's two tasks as events of one loop.
//
// The paper's model assumes reliable channels; on loopback UDP that is
// effectively true. No layer here retransmits: the detector's merges are
// idempotent and tag-monotone, so eventual re-delivery is all it needs, and
// the round driver's resend waves and late wave (core/round_driver.h)
// re-send whatever a lossy network drops.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "common/types.h"

namespace mmrfd::transport {

class DatagramTransport {
 public:
  /// Receive callback: the sender the transport names (an id >= n when it
  /// cannot map the datagram's address to a peer) and the raw datagram
  /// bytes. Invoked inside poll(), on the thread that called it; the
  /// payload is only valid for the duration of the call.
  using DatagramHandler = std::function<void(
      ProcessId from, std::span<const std::uint8_t> datagram)>;

  virtual ~DatagramTransport() = default;

  virtual void set_handler(DatagramHandler handler) = 0;
  virtual void start() = 0;
  virtual void stop() = 0;

  /// Waits at most `max_wait` for a datagram, then hands every ready one to
  /// the handler on the calling thread. Call from one thread at a time,
  /// between start() and stop().
  virtual void poll(Duration max_wait) = 0;

  /// Sends one datagram to a peer; the handler may call it. Best-effort:
  /// may drop.
  virtual void send(ProcessId to, std::span<const std::uint8_t> datagram) = 0;
};

}  // namespace mmrfd::transport
