#include "runtime/cluster.h"

#include <cassert>

#include "common/rng.h"
#include "net/topology.h"

namespace mmrfd::runtime {

namespace {

// TraceClock adapter: stamp flight-recorder records with sim time so the
// assembler's timeline lives in the same frame as the EventLog.
std::uint64_t sim_now_ns(const void* ctx) {
  return static_cast<std::uint64_t>(
      static_cast<const sim::Simulation*>(ctx)->now().count());
}

}  // namespace

std::unique_ptr<net::DelayModel> build_mmr_delays(
    const MmrClusterConfig& config) {
  auto model = net::make_preset(config.delay_preset, config.mean_delay);
  if (!config.fast_set.empty()) {
    // Both directions: the MP witness must receive queries quickly too, or
    // the issuer->witness leg alone can push its response out of the
    // winning window.
    model = std::make_unique<net::FastSetDelay>(
        std::move(model), config.fast_set, config.fast_factor,
        net::FastSetDelay::Scope::kBothDirections);
  }
  if (config.spike) {
    model = std::make_unique<net::SpikeDelay>(
        std::move(model), config.spike->start, config.spike->end,
        config.spike->factor, config.spike->affected);
  }
  return model;
}

void apply_fault_knobs(MmrNetwork& net, const MmrClusterConfig& config) {
  const auto& f = config.faults;
  if (f.loss_rate > 0.0) net.set_loss_rate(f.loss_rate);
  if (f.duplicate_rate > 0.0) net.set_duplicate_rate(f.duplicate_rate);
  if (f.reorder_rate > 0.0) net.set_reorder(f.reorder_rate, f.reorder_window);
  for (const auto& [from, to] : f.blocked_links) net.block_link(from, to);
  for (const auto& flap : f.link_flaps) {
    net.add_link_flap(flap.from, flap.to, flap.down, flap.up);
  }
}

MmrHostConfig mmr_host_config(const MmrClusterConfig& config, ProcessId self,
                              Xoshiro256& stagger) {
  MmrHostConfig hc;
  hc.detector.self = self;
  hc.detector.n = config.n;
  hc.detector.f = config.f;
  hc.detector.extra_quorum = config.extra_quorum;
  hc.detector.delta_queries = config.delta_queries;
  hc.detector.giveup_rounds = config.giveup_rounds;
  hc.detector.resync_interval = config.resync_interval;
  hc.pacing = config.pacing;
  hc.pacing_jitter = config.pacing_jitter;
  hc.jitter_seed = config.seed;
  // Desynchronize the first queries across [0, pacing).
  hc.initial_delay = Duration(static_cast<Duration::rep>(
      stagger.next_double() * static_cast<double>(config.pacing.count())));
  return hc;
}

MmrCluster::MmrCluster(const MmrClusterConfig& config)
    : config_(config),
      net_(std::make_unique<MmrNetwork>(sim_, net::Topology::full(config.n),
                                        build_mmr_delays(config), config.seed)),
      log_(sim_, config.log_mode),
      recorder_(config.n) {
  assert(config_.f < config_.n);
  apply_fault_knobs(*net_, config_);
  Xoshiro256 stagger_rng(derive_seed(config_.seed, "cluster.stagger"));
  hosts_.reserve(config_.n);
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    MmrHostConfig hc = mmr_host_config(config_, ProcessId{i}, stagger_rng);
    hc.registry = config_.registry;
    if (config_.trace_capacity > 0) {
      traces_.push_back(std::make_unique<obs::FlightRecorder>(
          config_.trace_capacity, obs::TraceClock{&sim_now_ns, &sim_}));
      hc.recorder = traces_.back().get();
    }
    hosts_.push_back(std::make_unique<MmrHost>(
        sim_, *net_, hc, &recorder_, log_.observer_for(ProcessId{i})));
  }
}

void MmrCluster::start(const CrashPlan& plan) {
  assert(!started_);
  started_ = true;
  for (auto& h : hosts_) h->start();
  for (const auto& e : plan.entries) {
    sim_.schedule_at(e.when, [this, victim = e.victim] {
      if (!hosts_[victim.value]->crashed()) {
        hosts_[victim.value]->crash();
        log_.record_crash(victim);
      }
    });
  }
}

std::vector<ProcessId> MmrCluster::alive() const {
  std::vector<ProcessId> out;
  for (const auto& h : hosts_) {
    if (!h->crashed()) out.push_back(h->id());
  }
  return out;
}

}  // namespace mmrfd::runtime
