#include "runtime/simple_host.h"

namespace mmrfd::runtime {

namespace {

core::RoundDriverConfig driver_config(const SimpleHostConfig& config) {
  core::RoundDriverConfig d;
  d.pacing = config.pacing;
  return d;
}

}  // namespace

SimpleHost::SimpleHost(sim::Simulation& simulation, MmrNetwork& network,
                       const SimpleHostConfig& config,
                       core::SuspicionObserver* observer)
    : SimHost(simulation, network, config.detector, driver_config(config),
              config.initial_delay, observer) {}

}  // namespace mmrfd::runtime
