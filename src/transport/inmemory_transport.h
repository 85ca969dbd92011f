// In-memory threaded transport: n endpoints exchanging raw datagrams through
// per-receiver queues, each drained by a dedicated dispatch thread. The
// multi-threaded analogue of net::Network — real concurrency, loopback
// latency, no loss — used by the transport integration tests; wrap an
// endpoint in a FaultyTransport for lossy links.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
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

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }

 private:
  struct Node;
  class Endpoint;

  void enqueue(ProcessId to, std::vector<std::uint8_t> datagram);

  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

}  // namespace mmrfd::transport
