#include "runtime/sharded_cluster.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "net/topology.h"

namespace mmrfd::runtime {

Duration ShardedMmrCluster::window_for(const MmrClusterConfig& config) {
  const Duration w = build_mmr_delays(config)->min_delay();
  if (w <= Duration::zero()) {
    throw std::invalid_argument(
        "ShardedMmrCluster: the delay model's min_delay() bound is zero — "
        "conservative windows cannot order cross-shard deliveries (use a "
        "preset with a positive base delay)");
  }
  return w;
}

ShardedMmrCluster::ShardedMmrCluster(const MmrClusterConfig& config,
                                     std::uint32_t shards)
    : config_(config), engine_(shards, window_for(config)) {
  assert(config_.f < config_.n);
  assert(shards >= 1);

  // Contiguous blocks: shard s owns [s*n/S, (s+1)*n/S). Deterministic, and
  // a host's neighbors-by-index locality survives the partitioning.
  auto shard_of = std::make_shared<std::vector<std::uint32_t>>(config_.n);
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    (*shard_of)[i] = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(i) * shards) / config_.n);
  }
  shard_of_ = std::move(shard_of);

  nets_.reserve(shards);
  logs_.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    nets_.push_back(std::make_unique<MmrNetwork>(
        engine_.shard(s), net::Topology::full(config_.n),
        build_mmr_delays(config_),
        derive_seed(config_.seed, "shard.net", s)));
    apply_fault_knobs(*nets_[s], config_);
    nets_[s]->enable_shard_routing(
        shard_of_, s,
        [this, s](std::uint32_t dst_shard, TimePoint when, ProcessId from,
                  ProcessId to, std::shared_ptr<const MmrMessage> payload) {
          engine_.post(s, dst_shard, when,
                       [this, dst_shard, from, to, p = std::move(payload)] {
                         nets_[dst_shard]->deliver_remote(from, to, p);
                       });
        });
    logs_.push_back(std::make_unique<metrics::EventLog>(
        engine_.shard(s), metrics::LogMode::kRollup));
    registries_.push_back(std::make_unique<obs::MetricsRegistry>());
  }

  Xoshiro256 stagger_rng(derive_seed(config_.seed, "cluster.stagger"));
  hosts_.reserve(config_.n);
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    MmrHostConfig hc = mmr_host_config(config_, ProcessId{i}, stagger_rng);
    const std::uint32_t s = (*shard_of_)[i];
    hc.registry = registries_[s].get();
    hosts_.push_back(std::make_unique<MmrHost>(
        engine_.shard(s), *nets_[s], hc, /*recorder=*/nullptr,
        logs_[s]->observer_for(ProcessId{i})));
  }
}

obs::RegistrySnapshot ShardedMmrCluster::telemetry() const {
  obs::RegistrySnapshot merged;
  for (const auto& reg : registries_) merged.merge(reg->snapshot());
  return merged;
}

void ShardedMmrCluster::start(const CrashPlan& plan) {
  assert(!started_);
  started_ = true;
  for (auto& h : hosts_) h->start();
  for (const auto& e : plan.entries) {
    const std::uint32_t s = (*shard_of_)[e.victim.value];
    engine_.shard(s).schedule_at(e.when, [this, s, victim = e.victim] {
      if (!hosts_[victim.value]->crashed()) {
        hosts_[victim.value]->crash();
        logs_[s]->record_crash(victim);
      }
    });
  }
}

std::vector<metrics::PairRollup> ShardedMmrCluster::rollup() const {
  std::vector<metrics::PairRollup> out;
  for (const auto& log : logs_) {
    auto part = log->rollup();  // pairs are disjoint: observer fixes the shard
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end(),
            [](const metrics::PairRollup& a, const metrics::PairRollup& b) {
              if (a.observer != b.observer) return a.observer < b.observer;
              return a.subject < b.subject;
            });
  return out;
}

std::vector<metrics::CrashRecord> ShardedMmrCluster::crashes() const {
  std::vector<metrics::CrashRecord> out;
  for (const auto& log : logs_) {
    out.insert(out.end(), log->crashes().begin(), log->crashes().end());
  }
  std::sort(out.begin(), out.end(),
            [](const metrics::CrashRecord& a, const metrics::CrashRecord& b) {
              if (a.when != b.when) return a.when < b.when;
              return a.subject < b.subject;
            });
  return out;
}

net::NetworkStats ShardedMmrCluster::stats() const {
  net::NetworkStats total;
  for (const auto& net : nets_) {
    const net::NetworkStats& s = net->stats();
    total.messages_sent += s.messages_sent;
    total.messages_delivered += s.messages_delivered;
    total.messages_dropped_crash += s.messages_dropped_crash;
    total.messages_dropped_loss += s.messages_dropped_loss;
    total.messages_dropped_partition += s.messages_dropped_partition;
    total.messages_duplicated += s.messages_duplicated;
    total.messages_reordered += s.messages_reordered;
    total.bytes_sent += s.bytes_sent;
  }
  return total;
}

std::size_t ShardedMmrCluster::log_retained_bytes() const {
  std::size_t total = 0;
  for (const auto& log : logs_) total += log->approx_retained_bytes();
  return total;
}

std::vector<ProcessId> ShardedMmrCluster::alive() const {
  std::vector<ProcessId> out;
  for (const auto& h : hosts_) {
    if (!h->crashed()) out.push_back(h->id());
  }
  return out;
}

}  // namespace mmrfd::runtime
