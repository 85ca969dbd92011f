// Simulated message-passing network.
//
// Semantics, matching the DSN'03 computation model:
//   * reliable channels — no creation, alteration or loss of messages
//     (an optional loss rate exists solely for stressing the timer-based
//     baselines; the core protocol's experiments keep it at 0);
//   * arbitrary, unbounded delays drawn from a DelayModel — the asynchrony;
//   * crash-stop failures — a crashed process neither sends nor receives
//     (deliveries to it are dropped silently);
//   * no FIFO guarantee between a pair of processes (delays are sampled
//     independently per message), which is strictly weaker than what the
//     protocol needs — it needs nothing.
//
// On top of the model sits an opt-in adversarial fault layer (loss,
// duplication, bounded reordering, directed-edge partitions, scheduled link
// flaps) for the self-stabilization sweeps. Every fault decision is made at
// send time on the sending shard from dedicated RNG streams, so serial and
// sharded runs agree per seed, and with every knob at its default the code
// draws nothing extra — fixed-seed golden schedules stay bit-identical.
//
// Network is a class template over the protocol's message type (typically a
// std::variant of the protocol's messages) so the layer stays protocol-
// agnostic while deliveries remain statically typed.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/delay_model.h"
#include "net/topology.h"
#include "sim/simulation.h"

namespace mmrfd::net {

struct NetworkStats {
  std::uint64_t messages_sent{0};
  std::uint64_t messages_delivered{0};
  std::uint64_t messages_dropped_crash{0};
  std::uint64_t messages_dropped_loss{0};
  std::uint64_t messages_dropped_partition{0};
  std::uint64_t messages_duplicated{0};
  std::uint64_t messages_reordered{0};
  std::uint64_t bytes_sent{0};
};

template <typename Msg>
class Network {
 public:
  using Handler = std::function<void(ProcessId from, const Msg&)>;
  using SizeFn = std::function<std::size_t(const Msg&)>;
  /// Shard hand-off hook: (dst_shard, when, from, to, payload). Installed by
  /// the sharded runtime; the network calls it instead of scheduling a local
  /// delivery event whenever the recipient lives on another shard.
  using RemoteSink = std::function<void(std::uint32_t dst_shard,
                                        TimePoint when, ProcessId from,
                                        ProcessId to,
                                        std::shared_ptr<const Msg> payload)>;

  Network(sim::Simulation& simulation, Topology topology,
          std::unique_ptr<DelayModel> delays, std::uint64_t seed)
      : sim_(simulation),
        topology_(std::move(topology)),
        delays_(std::move(delays)),
        rng_(derive_seed(seed, "net.delays")),
        loss_rng_(derive_seed(seed, "net.loss")),
        fault_rng_(derive_seed(seed, "net.faults")),
        handlers_(topology_.size()),
        crashed_(topology_.size(), false) {
    assert(delays_ != nullptr);
  }

  [[nodiscard]] std::size_t size() const { return topology_.size(); }
  [[nodiscard]] const Topology& topology() const { return topology_; }

  /// Turns this instance into one shard of a partitioned deployment:
  /// `shard_of[i]` names node i's owning shard, `self_shard` is this
  /// network's shard, and deliveries to nodes of other shards are handed to
  /// `sink` (with their absolute delivery time) instead of the local heap.
  /// Delay sampling, loss and duplication still happen here, on the sending
  /// shard, so a shard's random streams stay private to its thread.
  void enable_shard_routing(std::shared_ptr<const std::vector<std::uint32_t>> shard_of,
                            std::uint32_t self_shard, RemoteSink sink) {
    assert(shard_of != nullptr && shard_of->size() == size());
    assert(sink != nullptr);
    shard_of_ = std::move(shard_of);
    self_shard_ = self_shard;
    remote_sink_ = std::move(sink);
  }

  /// Executes a delivery handed over from another shard. Crash filtering
  /// and delivery stats run here, on the owning shard, where the
  /// recipient's state lives.
  void deliver_remote(ProcessId from, ProcessId to,
                      const std::shared_ptr<const Msg>& payload) {
    deliver(from, to, *payload);
  }

  void set_handler(ProcessId id, Handler h) {
    handlers_.at(id.value) = std::move(h);
  }

  /// Optional per-message wire-size estimator; enables bytes_sent stats.
  void set_size_fn(SizeFn fn) { size_fn_ = std::move(fn); }

  /// Fraction of messages silently dropped (baseline stress only; the model
  /// itself has reliable channels).
  void set_loss_rate(double p) {
    assert(p >= 0.0 && p < 1.0);
    loss_rate_ = p;
  }

  /// Fraction of messages delivered twice (independent delays). Like loss,
  /// duplication violates the paper's channel model; the protocols must
  /// nevertheless be idempotent against it (robustness tests).
  void set_duplicate_rate(double p) {
    assert(p >= 0.0 && p < 1.0);
    duplicate_rate_ = p;
  }

  /// Bounded out-of-order delivery: with probability `rate` a message's
  /// sampled delay is stretched by an extra uniform draw in (0, window], so
  /// messages sent later can overtake it — adversarial non-FIFO reordering
  /// beyond what independent delay sampling already produces. Draws come
  /// from a dedicated RNG stream on the sending shard, so serial and
  /// sharded runs stay deterministic per seed and rate 0 (the default)
  /// draws nothing, leaving fixed-seed golden schedules bit-identical.
  void set_reorder(double rate, Duration window) {
    assert(rate >= 0.0 && rate < 1.0);
    assert(rate == 0.0 || window > Duration::zero());
    reorder_rate_ = rate;
    reorder_window_ = window;
  }

  /// Asymmetric partition: every from->to message is dropped until
  /// heal_link(). Directed — block_link(a, b) leaves b->a untouched, which
  /// is exactly the half-open failure mode the paper's model excludes.
  void block_link(ProcessId from, ProcessId to) {
    blocked_links_.insert(edge_key(from, to));
  }

  void heal_link(ProcessId from, ProcessId to) {
    blocked_links_.erase(edge_key(from, to));
  }

  /// Scheduled link flap: from->to messages *sent* within [down, up) are
  /// dropped. The check runs against send time on the sending shard — no
  /// RNG draw, no cross-shard state — so flaps compose with shard routing.
  void add_link_flap(ProcessId from, ProcessId to, TimePoint down,
                     TimePoint up) {
    assert(down < up);
    flaps_[edge_key(from, to)].push_back(FlapInterval{down, up});
  }

  /// Marks a process crashed: it stops receiving immediately. (The caller is
  /// responsible for silencing the process's own sends — hosts check
  /// is_crashed() before acting.)
  void crash(ProcessId id) { crashed_.at(id.value) = true; }

  [[nodiscard]] bool is_crashed(ProcessId id) const {
    return crashed_.at(id.value);
  }

  [[nodiscard]] const NetworkStats& stats() const { return stats_; }

  /// Sends `msg` from `from` to `to`; delivery is scheduled after a sampled
  /// delay. Sending to a non-neighbor or from a crashed process asserts.
  ///
  /// Allocation profile: the common (no-duplication) path moves `msg`
  /// straight into the delivery event — no copy, no shared wrapper. Only
  /// when the duplication coin actually lands is the message promoted to a
  /// shared payload, and then both delivery events share that single copy.
  void send(ProcessId from, ProcessId to, Msg msg) {
    assert(!is_crashed(from));
    assert(from == to || topology_.are_neighbors(from, to));
    ++stats_.messages_sent;
    if (size_fn_) stats_.bytes_sent += size_fn_(msg);
    if (link_down(from, to)) {
      ++stats_.messages_dropped_partition;
      return;
    }
    if (loss_rate_ > 0.0 && loss_rng_.bernoulli(loss_rate_)) {
      ++stats_.messages_dropped_loss;
      return;
    }
    if (duplicate_rate_ > 0.0 && loss_rng_.bernoulli(duplicate_rate_)) {
      ++stats_.messages_duplicated;
      auto payload = std::make_shared<const Msg>(std::move(msg));
      // Keep the seed implementation's draw/schedule order bit-for-bit:
      // duplicate delay first, then the primary delay.
      schedule_delivery(from, to, payload);
      schedule_delivery(from, to, std::move(payload));
      return;
    }
    if (is_remote(to)) {
      // Crossing a shard boundary forces the one payload copy the serial
      // fast path avoids; the destination shard shares it with nothing.
      route_remote(from, to, std::make_shared<const Msg>(std::move(msg)));
      return;
    }
    const Duration delay =
        delays_->sample(from, to, sim_.now(), rng_) + reorder_extra();
    assert(delay >= Duration::zero());
    sim_.schedule(delay, [this, from, to, m = std::move(msg)]() {
      deliver(from, to, m);
    });
  }

  /// Sends an immutable shared payload from `from` to `to` — the unicast
  /// sibling of broadcast()'s fan-out: the delivery event references the
  /// caller's payload instead of owning a copy. Hosts use it to share one
  /// full-encoding query across every peer that needs the fallback.
  /// Loss/duplication/delay sampling order is identical to send(), so
  /// fixed-seed schedules are bit-for-bit the same whichever path a host
  /// picks.
  void send_shared(ProcessId from, ProcessId to,
                   std::shared_ptr<const Msg> payload) {
    assert(!is_crashed(from));
    assert(from == to || topology_.are_neighbors(from, to));
    assert(payload != nullptr);
    ++stats_.messages_sent;
    if (size_fn_) stats_.bytes_sent += size_fn_(*payload);
    if (link_down(from, to)) {
      ++stats_.messages_dropped_partition;
      return;
    }
    if (loss_rate_ > 0.0 && loss_rng_.bernoulli(loss_rate_)) {
      ++stats_.messages_dropped_loss;
      return;
    }
    if (duplicate_rate_ > 0.0 && loss_rng_.bernoulli(duplicate_rate_)) {
      ++stats_.messages_duplicated;
      schedule_delivery(from, to, payload);
    }
    schedule_delivery(from, to, std::move(payload));
  }

  /// Sends `msg` to every neighbor of `from` (excluding `from`: protocol
  /// cores account for their own copy locally, which also implements the
  /// paper's "its own response always arrives among the first" convention).
  ///
  /// The message is copied exactly once, into an immutable shared payload
  /// that every per-recipient delivery event references — O(1) message
  /// copies per broadcast instead of the O(n) a send() loop would make.
  /// Per-recipient loss/duplication/delay sampling is identical to a send()
  /// loop, so stats and fixed-seed schedules match the per-send path.
  void broadcast(ProcessId from, const Msg& msg) {
    broadcast_payload(from, std::make_shared<const Msg>(msg));
  }

  /// Rvalue overload: the broadcast consumes `msg` without any copy at all.
  void broadcast(ProcessId from, Msg&& msg) {
    broadcast_payload(from, std::make_shared<const Msg>(std::move(msg)));
  }

 private:
  void broadcast_payload(ProcessId from, std::shared_ptr<const Msg> payload) {
    assert(!is_crashed(from));
    for (ProcessId to : topology_.neighbors(from)) {
      ++stats_.messages_sent;
      if (size_fn_) stats_.bytes_sent += size_fn_(*payload);
      if (link_down(from, to)) {
        ++stats_.messages_dropped_partition;
        continue;
      }
      if (loss_rate_ > 0.0 && loss_rng_.bernoulli(loss_rate_)) {
        ++stats_.messages_dropped_loss;
        continue;
      }
      if (duplicate_rate_ > 0.0 && loss_rng_.bernoulli(duplicate_rate_)) {
        ++stats_.messages_duplicated;
        schedule_delivery(from, to, payload);
      }
      schedule_delivery(from, to, payload);
    }
  }

  [[nodiscard]] bool is_remote(ProcessId to) const {
    return shard_of_ != nullptr && (*shard_of_)[to.value] != self_shard_;
  }

  /// Samples the delay and hands a cross-shard delivery to the remote sink
  /// with its absolute due time. The sample happens on this (the sending)
  /// shard — identical draw accounting to a local delivery.
  void route_remote(ProcessId from, ProcessId to,
                    std::shared_ptr<const Msg> payload) {
    // Reorder stretch only ever *adds* delay, so the min-delay bound below
    // (and with it conservative-window soundness) survives fault injection.
    const Duration delay =
        delays_->sample(from, to, sim_.now(), rng_) + reorder_extra();
    assert(delay >= Duration::zero());
    // The min-delay bound is what makes conservative windows sound; a model
    // sampling below its own bound is a bug worth dying loudly for (the
    // engine re-checks at drain time for release builds).
    assert(delay >= delays_->min_delay());
    remote_sink_((*shard_of_)[to.value], sim_.now() + delay, from, to,
                 std::move(payload));
  }

  /// Schedules one delivery of a shared payload after a sampled delay. The
  /// event captures only {this, from, to, payload} — 40 bytes, comfortably
  /// inside the simulator's inline-callable budget.
  void schedule_delivery(ProcessId from, ProcessId to,
                         std::shared_ptr<const Msg> payload) {
    if (is_remote(to)) {
      route_remote(from, to, std::move(payload));
      return;
    }
    const Duration delay =
        delays_->sample(from, to, sim_.now(), rng_) + reorder_extra();
    assert(delay >= Duration::zero());
    sim_.schedule(delay, [this, from, to, p = std::move(payload)]() {
      deliver(from, to, *p);
    });
  }

  /// Extra delay a reordered message accrues, (0, window]. Strictly
  /// positive so a "reordered" message genuinely lags its sampled slot.
  /// When the knob is off this draws nothing — fixed-seed schedules with
  /// faults disabled are bit-identical to pre-fault-layer builds.
  [[nodiscard]] Duration reorder_extra() {
    if (reorder_rate_ <= 0.0 || !fault_rng_.bernoulli(reorder_rate_)) {
      return Duration::zero();
    }
    ++stats_.messages_reordered;
    const double u = fault_rng_.next_double();
    return Duration(1) + Duration(static_cast<Duration::rep>(
                             u * static_cast<double>(reorder_window_.count())));
  }

  [[nodiscard]] static std::uint64_t edge_key(ProcessId from, ProcessId to) {
    return (static_cast<std::uint64_t>(from.value) << 32) | to.value;
  }

  [[nodiscard]] bool link_down(ProcessId from, ProcessId to) const {
    if (blocked_links_.empty() && flaps_.empty()) return false;
    const std::uint64_t key = edge_key(from, to);
    if (blocked_links_.contains(key)) return true;
    if (const auto it = flaps_.find(key); it != flaps_.end()) {
      const TimePoint now = sim_.now();
      for (const auto& f : it->second) {
        if (now >= f.down && now < f.up) return true;
      }
    }
    return false;
  }

  void deliver(ProcessId from, ProcessId to, const Msg& msg) {
    if (crashed_[to.value]) {
      ++stats_.messages_dropped_crash;
      return;
    }
    ++stats_.messages_delivered;
    if (auto& h = handlers_[to.value]) h(from, msg);
  }

  struct FlapInterval {
    TimePoint down;
    TimePoint up;
  };

  sim::Simulation& sim_;
  Topology topology_;
  std::unique_ptr<DelayModel> delays_;
  Xoshiro256 rng_;
  Xoshiro256 loss_rng_;
  Xoshiro256 fault_rng_;
  std::vector<Handler> handlers_;
  std::vector<bool> crashed_;
  double loss_rate_{0.0};
  double duplicate_rate_{0.0};
  double reorder_rate_{0.0};
  Duration reorder_window_{Duration::zero()};
  std::unordered_set<std::uint64_t> blocked_links_;
  std::unordered_map<std::uint64_t, std::vector<FlapInterval>> flaps_;
  SizeFn size_fn_;
  NetworkStats stats_;

  // Shard routing (disabled for the serial engine: null shard map keeps
  // every delivery on the exact code path the golden digests pin).
  std::shared_ptr<const std::vector<std::uint32_t>> shard_of_;
  std::uint32_t self_shard_{0};
  RemoteSink remote_sink_;
};

}  // namespace mmrfd::net
