// BaselineCluster — the MmrCluster counterpart for the timer-based baseline
// detectors, so experiments can run "same workload, different detector"
// comparisons with one line of config per detector family.
//
// DetectorT must expose its Message and Config types, ctor(sim, network,
// Config, SuspicionObserver*), start(), crash(), and the
// core::FailureDetector interface — as baselines::BaselineDetector does.
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <vector>

#include "metrics/event_log.h"
#include "net/network.h"
#include "runtime/crash_plan.h"
#include "sim/simulation.h"

namespace mmrfd::runtime {

template <typename DetectorT>
class BaselineCluster {
 public:
  using Config = typename DetectorT::Config;
  using Network = net::Network<typename DetectorT::Message>;

  /// `make_config` builds the per-process config (self id, stagger, ...).
  BaselineCluster(std::uint32_t n, net::Topology topology,
                  std::unique_ptr<net::DelayModel> delays, std::uint64_t seed,
                  std::function<Config(ProcessId)> make_config)
      : net_(sim_, std::move(topology), std::move(delays), seed), log_(sim_) {
    detectors_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      detectors_.push_back(std::make_unique<DetectorT>(
          sim_, net_, make_config(ProcessId{i}),
          log_.observer_for(ProcessId{i})));
    }
  }

  void start(const CrashPlan& plan = CrashPlan::none()) {
    assert(!started_);
    started_ = true;
    for (auto& d : detectors_) d->start();
    for (const auto& e : plan.entries) {
      sim_.schedule_at(e.when, [this, victim = e.victim] {
        if (!detectors_[victim.value]->crashed()) {
          detectors_[victim.value]->crash();
          log_.record_crash(victim);
        }
      });
    }
  }

  void run_for(Duration d) { sim_.run_for(d); }

  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] Network& network() { return net_; }
  [[nodiscard]] metrics::EventLog& log() { return log_; }
  [[nodiscard]] const metrics::EventLog& log() const { return log_; }
  [[nodiscard]] DetectorT& detector(ProcessId id) {
    return *detectors_.at(id.value);
  }
  [[nodiscard]] std::uint32_t n() const {
    return static_cast<std::uint32_t>(detectors_.size());
  }

 private:
  sim::Simulation sim_;
  Network net_;
  metrics::EventLog log_;
  std::vector<std::unique_ptr<DetectorT>> detectors_;
  bool started_{false};
};

}  // namespace mmrfd::runtime
