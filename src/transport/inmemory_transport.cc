#include "transport/inmemory_transport.h"

#include <cassert>

namespace mmrfd::transport {

struct InMemoryHub::Node {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::vector<std::uint8_t>> queue;
  DatagramTransport::DatagramHandler handler;
  bool running{false};
  bool stopping{false};
  std::thread thread;
};

class InMemoryHub::Endpoint final : public DatagramTransport {
 public:
  Endpoint(InMemoryHub& hub, ProcessId self) : hub_(hub), self_(self) {}

  void set_handler(DatagramHandler handler) override {
    auto& node = *hub_.nodes_[self_.value];
    std::lock_guard lock(node.mutex);
    node.handler = std::move(handler);
  }

  void start() override {
    auto& node = *hub_.nodes_[self_.value];
    std::lock_guard lock(node.mutex);
    assert(node.handler && "set_handler before start");
    if (node.running) return;
    node.running = true;
    node.stopping = false;
    node.thread = std::thread([this] { dispatch_loop(); });
  }

  void stop() override {
    auto& node = *hub_.nodes_[self_.value];
    {
      std::lock_guard lock(node.mutex);
      if (!node.running) return;
      node.stopping = true;
    }
    node.cv.notify_all();
    node.thread.join();
    std::lock_guard lock(node.mutex);
    node.running = false;
  }

  void send(ProcessId to, std::span<const std::uint8_t> datagram) override {
    hub_.enqueue(to,
                 std::vector<std::uint8_t>(datagram.begin(), datagram.end()));
  }

  [[nodiscard]] ProcessId self() const override { return self_; }
  [[nodiscard]] std::uint32_t cluster_size() const override {
    return hub_.size();
  }

 private:
  void dispatch_loop() {
    auto& node = *hub_.nodes_[self_.value];
    std::unique_lock lock(node.mutex);
    while (true) {
      node.cv.wait(lock,
                   [&] { return node.stopping || !node.queue.empty(); });
      if (node.stopping) return;
      auto datagram = std::move(node.queue.front());
      node.queue.pop_front();
      // Deliver without holding the lock: the handler may send().
      auto handler = node.handler;
      lock.unlock();
      handler(datagram);
      lock.lock();
    }
  }

  InMemoryHub& hub_;
  ProcessId self_;
};

InMemoryHub::InMemoryHub(std::uint32_t n) {
  assert(n > 0);
  nodes_.reserve(n);
  endpoints_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    nodes_.push_back(std::make_unique<Node>());
    endpoints_.push_back(std::make_unique<Endpoint>(*this, ProcessId{i}));
  }
}

InMemoryHub::~InMemoryHub() {
  for (auto& ep : endpoints_) ep->stop();
}

DatagramTransport& InMemoryHub::endpoint(ProcessId id) {
  return *endpoints_.at(id.value);
}

void InMemoryHub::enqueue(ProcessId to, std::vector<std::uint8_t> datagram) {
  auto& node = *nodes_.at(to.value);
  {
    std::lock_guard lock(node.mutex);
    node.queue.push_back(std::move(datagram));
  }
  node.cv.notify_one();
}

}  // namespace mmrfd::transport
