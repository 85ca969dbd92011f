// SimpleHost — the simulated host of the tag-free SimpleDetectorCore (the
// perpetual-assumption / class-S variant): the same SimHost adapter as
// MmrHost, over the ablation core. Its types and constructor match
// BaselineCluster's expectations, so runtime::BaselineCluster<SimpleHost>
// gives a full cluster of them (see runtime::SimpleCluster alias).
#pragma once

#include "core/simple_detector.h"
#include "runtime/baseline_cluster.h"
#include "runtime/mmr_host.h"

namespace mmrfd::runtime {

struct SimpleHostConfig {
  core::SimpleDetectorConfig detector;
  Duration pacing{from_millis(1000)};
  Duration initial_delay{Duration::zero()};
};

class SimpleHost : public SimHost<core::SimpleDetectorCore> {
 public:
  using Message = MmrMessage;
  using Config = SimpleHostConfig;

  SimpleHost(sim::Simulation& simulation, MmrNetwork& network,
             const SimpleHostConfig& config,
             core::SuspicionObserver* observer = nullptr);
};

/// A cluster of tag-free detectors (ablation harness for experiment E9).
using SimpleCluster = BaselineCluster<SimpleHost>;

}  // namespace mmrfd::runtime
