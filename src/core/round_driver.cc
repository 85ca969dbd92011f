#include "core/round_driver.h"

namespace mmrfd::core {

template <typename Core>
void RoundDriver<Core>::on_quorum(TimePoint now) {
  if constexpr (requires { core_.winning(); }) {
    if (config_.properties != nullptr) {
      config_.properties->record(core_.config().self, core_.query_seq(), now,
                                 core_.winning());
    }
  }
  // The assembler's pivot between in-round time and pacing.
  trace(obs::TraceKind::kQuorum, round_seq(),
        static_cast<std::uint32_t>(core_.rec_from().size()));
  add(config_.quorums);
  if (config_.round_rtt_ns != nullptr) {
    config_.round_rtt_ns->observe(
        static_cast<std::uint64_t>((now - round_start_).count()));
  }
  // Late responses during the pause still count into rec_from.
  Duration pause = config_.pacing;
  if (config_.pacing_jitter != 0.0) {
    pause = Duration(static_cast<Duration::rep>(
        static_cast<double>(pause.count()) *
        jitter_rng_.uniform(1.0 - config_.pacing_jitter,
                            1.0 + config_.pacing_jitter)));
  }
  deadline_ = now + pause;
}

// Every member compiles against both cores here, once.
template class RoundDriver<DetectorCore>;
template class RoundDriver<SimpleDetectorCore>;

}  // namespace mmrfd::core
