#include "transport/inmemory_transport.h"

#include <cassert>
#include <condition_variable>
#include <deque>
#include <mutex>

namespace mmrfd::transport {

class InMemoryHub::Endpoint final : public DatagramTransport {
 public:
  Endpoint(InMemoryHub& hub, ProcessId self) : hub_(hub), self_(self) {}

  void set_handler(DatagramHandler handler) override {
    handler_ = std::move(handler);
  }
  void start() override { assert(handler_ && "set_handler before start"); }
  void stop() override {}

  void poll(Duration max_wait) override {
    std::deque<Queued> ready;
    {
      std::unique_lock lock(mutex_);
      cv_.wait_for(lock, max_wait, [&] { return !queue_.empty(); });
      ready.swap(queue_);
    }
    // Delivered without the lock: the handler may send() to a peer, and
    // peers keep queueing here meanwhile.
    for (const auto& [from, datagram] : ready) handler_(from, datagram);
  }

  void send(ProcessId to, std::span<const std::uint8_t> datagram) override {
    hub_.endpoints_.at(to.value)->push(
        {self_, std::vector<std::uint8_t>(datagram.begin(), datagram.end())});
  }

 private:
  /// A datagram and the endpoint that sent it, which is its sender.
  struct Queued {
    ProcessId from;
    std::vector<std::uint8_t> datagram;
  };

  void push(Queued queued) {
    {
      std::lock_guard lock(mutex_);
      queue_.push_back(std::move(queued));
    }
    cv_.notify_one();
  }

  InMemoryHub& hub_;
  ProcessId self_;
  DatagramHandler handler_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Queued> queue_;  // guarded by mutex_
};

InMemoryHub::InMemoryHub(std::uint32_t n) {
  assert(n > 0);
  endpoints_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    endpoints_.push_back(std::make_unique<Endpoint>(*this, ProcessId{i}));
  }
}

InMemoryHub::~InMemoryHub() = default;

DatagramTransport& InMemoryHub::endpoint(ProcessId id) {
  return *endpoints_.at(id.value);
}

}  // namespace mmrfd::transport
