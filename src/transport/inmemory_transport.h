// In-memory transport: n endpoints exchanging raw datagrams through
// per-receiver queues, each drained by whoever polls its endpoint. A queued
// datagram keeps the id of the endpoint that sent it, which the receiver's
// handler gets as the sender. The multi-threaded analogue of net::Network —
// one protocol thread per node, real concurrency between nodes, loopback
// latency, no loss — used by the transport integration tests, which build a
// RealTimeDetector straight over an endpoint; wrap one in a FaultyTransport
// for lossy links.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "transport/datagram.h"

namespace mmrfd::transport {

class InMemoryHub {
 public:
  explicit InMemoryHub(std::uint32_t n);
  ~InMemoryHub();

  InMemoryHub(const InMemoryHub&) = delete;
  InMemoryHub& operator=(const InMemoryHub&) = delete;

  /// The datagram endpoint for process `id`; owned by the hub.
  [[nodiscard]] DatagramTransport& endpoint(ProcessId id);

 private:
  class Endpoint;

  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

}  // namespace mmrfd::transport
