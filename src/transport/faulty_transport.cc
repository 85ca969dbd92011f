#include "transport/faulty_transport.h"

#include <utility>

namespace mmrfd::transport {

FaultyTransport::FaultyTransport(DatagramTransport& inner,
                                 const FaultConfig& config)
    : inner_(inner), config_(config), rng_(config.seed) {
  if (config.registry == nullptr) {
    own_registry_ = std::make_unique<obs::MetricsRegistry>();
  }
  obs::MetricsRegistry& reg =
      config.registry != nullptr ? *config.registry : *own_registry_;
  sent_ = &reg.counter("fault.sent");
  dropped_ = &reg.counter("fault.dropped");
  duplicated_ = &reg.counter("fault.duplicated");
  reordered_ = &reg.counter("fault.reordered");
  corrupted_ = &reg.counter("fault.corrupted");
  truncated_ = &reg.counter("fault.truncated");
}

void FaultyTransport::stop() {
  // Flush holdbacks first: a reordered datagram delayed past shutdown would
  // turn the reorder knob into a stealth drop knob.
  std::unordered_map<std::uint32_t, std::vector<std::uint8_t>> held;
  {
    std::lock_guard lock(mutex_);
    held.swap(held_);
  }
  for (auto& [to, datagram] : held) {
    inner_.send(ProcessId{to}, datagram);
  }
  inner_.stop();
}

void FaultyTransport::send(ProcessId to,
                           std::span<const std::uint8_t> datagram) {
  std::vector<std::uint8_t> mine(datagram.begin(), datagram.end());
  std::vector<std::uint8_t> released;
  bool duplicate = false;
  {
    std::lock_guard lock(mutex_);
    sent_->add(1);
    if (config_.drop_rate > 0.0 && rng_.bernoulli(config_.drop_rate)) {
      dropped_->add(1);
      return;
    }
    if (config_.reorder_rate > 0.0 && rng_.bernoulli(config_.reorder_rate)) {
      auto& slot = held_[to.value];
      if (slot.empty()) {
        // Stash this datagram; it goes out right after the peer's next one.
        reordered_->add(1);
        slot = std::move(mine);
        return;
      }
      // Slot occupied: swap, so the held datagram finally overtakes us.
      std::swap(slot, mine);
      reordered_->add(1);
    } else if (auto it = held_.find(to.value);
               it != held_.end() && !it->second.empty()) {
      // Release the held datagram *after* this one (that is the reorder).
      released = std::move(it->second);
      held_.erase(it);
    }
    duplicate =
        config_.duplicate_rate > 0.0 && rng_.bernoulli(config_.duplicate_rate);
    if (duplicate) duplicated_->add(1);
  }
  std::vector<std::uint8_t> copy;
  if (duplicate) copy = mine;
  emit(to, std::move(mine));
  if (duplicate) emit(to, std::move(copy));
  if (!released.empty()) emit(to, std::move(released));
}

void FaultyTransport::emit(ProcessId to, std::vector<std::uint8_t> datagram) {
  // Per-emitted-copy corruption/truncation: the mutex covers only the RNG
  // and counters; the inner send runs outside it.
  bool truncated_to_nothing = false;
  {
    std::lock_guard lock(mutex_);
    if (config_.corrupt_rate > 0.0 && rng_.bernoulli(config_.corrupt_rate) &&
        !datagram.empty()) {
      corrupted_->add(1);
      const std::uint64_t flips = 1 + rng_.next_below(4);
      for (std::uint64_t i = 0; i < flips; ++i) {
        const std::uint64_t draw = rng_.next();
        // Flip at least one bit of a random byte.
        datagram[draw % datagram.size()] ^=
            static_cast<std::uint8_t>((draw >> 32) | 1);
      }
    }
    if (config_.truncate_rate > 0.0 && rng_.bernoulli(config_.truncate_rate) &&
        !datagram.empty()) {
      truncated_->add(1);
      datagram.resize(rng_.next_below(datagram.size()));  // strict prefix
      truncated_to_nothing = datagram.empty();
    }
  }
  if (truncated_to_nothing) return;
  inner_.send(to, datagram);
}

}  // namespace mmrfd::transport
