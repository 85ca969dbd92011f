#include "runtime/mmr_host.h"

namespace mmrfd::runtime {

namespace {

core::RoundDriverConfig driver_config(const MmrHostConfig& config,
                                      core::PropertyRecorder* recorder) {
  core::RoundDriverConfig d;
  d.pacing = config.pacing;
  d.pacing_jitter = config.pacing_jitter;
  d.jitter_seed = config.jitter_seed;
  d.recorder = config.recorder;
  d.properties = recorder;
  if (config.registry != nullptr) {
    d.round_rtt_ns = &config.registry->histogram("sim.round_rtt_ns");
    d.quorums = &config.registry->counter("sim.rounds");
  }
  return d;
}

}  // namespace

MmrHost::MmrHost(sim::Simulation& simulation, MmrNetwork& network,
                 const MmrHostConfig& config,
                 core::PropertyRecorder* recorder,
                 core::SuspicionObserver* observer)
    : SimHost(simulation, network, config.detector,
              driver_config(config, recorder), config.initial_delay,
              observer) {}

}  // namespace mmrfd::runtime
