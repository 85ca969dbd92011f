#include "baselines/gossip.h"

#include <algorithm>
#include <cassert>

#include "common/peer_range.h"

namespace mmrfd::baselines {

GossipDetector::GossipDetector(sim::Simulation& simulation,
                               GossipNetwork& network,
                               const GossipConfig& config,
                               core::SuspicionObserver* observer)
    : sim_(simulation),
      net_(network),
      config_(config),
      observer_(observer),
      rng_(derive_seed(config.seed, "gossip", config.self.value)),
      counters_(config.n, 0),
      timers_(config.n, sim::kNoEvent),
      suspected_(config.n, false) {
  assert(config_.n > 1);
  net_.set_handler(id(), [this](ProcessId from, const GossipMessage& m) {
    handle(from, m);
  });
}

void GossipDetector::start() {
  assert(!started_);
  started_ = true;
  sim_.schedule(config_.initial_delay, [this] {
    for (ProcessId peer : PeerRange::all_but(id(), config_.n)) {
      arm_timer(peer);
    }
    tick();
  });
}

void GossipDetector::crash() {
  crashed_ = true;
  net_.crash(id());
}

void GossipDetector::tick() {
  if (crashed_) return;
  ++counters_[id().value];
  const GossipMessage msg{counters_};
  const auto neighbors = net_.topology().neighbors(id());
  if (config_.fanout == 0 || config_.fanout >= neighbors.size()) {
    net_.broadcast(id(), msg);
  } else {
    // Sample `fanout` distinct neighbors (partial Fisher-Yates on a copy).
    std::vector<ProcessId> pool(neighbors.begin(), neighbors.end());
    for (std::uint32_t i = 0; i < config_.fanout; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng_.next_below(pool.size() - i));
      std::swap(pool[i], pool[j]);
      net_.send(id(), pool[i], msg);
    }
  }
  sim_.schedule(config_.period, [this] { tick(); });
}

void GossipDetector::handle(ProcessId from, const GossipMessage& msg) {
  (void)from;
  if (crashed_) return;
  assert(msg.counters.size() == counters_.size());
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    const ProcessId peer{i};
    if (peer == id()) continue;
    if (msg.counters[i] > counters_[i]) {
      counters_[i] = msg.counters[i];
      if (suspected_[i]) {
        suspected_[i] = false;
        if (observer_ != nullptr) observer_->on_cleared(peer, 0);
      }
      arm_timer(peer);
    }
  }
}

void GossipDetector::arm_timer(ProcessId peer) {
  sim_.cancel(timers_[peer.value]);
  timers_[peer.value] =
      sim_.schedule(config_.timeout, [this, peer] { expire(peer); });
}

void GossipDetector::expire(ProcessId peer) {
  if (crashed_) return;
  timers_[peer.value] = sim::kNoEvent;
  if (!suspected_[peer.value]) {
    suspected_[peer.value] = true;
    if (observer_ != nullptr) observer_->on_suspected(peer, 0);
  }
}

std::vector<ProcessId> GossipDetector::suspected() const {
  std::vector<ProcessId> out;
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    if (suspected_[i]) out.push_back(ProcessId{i});
  }
  return out;
}

bool GossipDetector::is_suspected(ProcessId pid) const {
  return pid.value < suspected_.size() && suspected_[pid.value];
}

}  // namespace mmrfd::baselines
