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
  const Duration rtt = now - round_start_;
  if (config_.round_rtt_ns != nullptr) {
    config_.round_rtt_ns->observe(static_cast<std::uint64_t>(rtt.count()));
  }
  Duration pause = config_.pacing;
  if (config_.pacing_jitter != 0.0) {
    pause = Duration(static_cast<Duration::rep>(
        static_cast<double>(pause.count()) *
        jitter_rng_.uniform(1.0 - config_.pacing_jitter,
                            1.0 + config_.pacing_jitter)));
  }
  // Late responses count until the grace ends: half the pause, or as long
  // as this round took to reach its quorum, so a slow round's stragglers
  // are not cut off sooner than its winners were waited for.
  const Duration grace = std::min(pause, std::max(pause / 2, rtt));
  grace_end_ = now + grace;
  pause_end_ = now + pause;
  step_ = config_.resend ? Step::kLateWave : Step::kFinish;
  deadline_ = config_.resend ? now + grace / 2 : grace_end_;
}

// Every member compiles against both cores here, once.
template class RoundDriver<DetectorCore>;
template class RoundDriver<SimpleDetectorCore>;

}  // namespace mmrfd::core
