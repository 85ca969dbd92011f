#include "consensus/harness.h"

#include <cassert>

#include "common/rng.h"

namespace mmrfd::consensus {

const char* fd_kind_name(FdKind kind) {
  switch (kind) {
    case FdKind::kPerfect:
      return "perfect";
    case FdKind::kMmr:
      return "mmr-async";
    case FdKind::kHeartbeat:
      return "heartbeat";
    case FdKind::kPhiAccrual:
      return "phi-accrual";
  }
  return "?";
}

/// Ground-truth oracle: suspects exactly the crashed processes. The ideal
/// detector no implementation can beat; the harness's control condition.
class ConsensusHarness::PerfectFd final : public core::FailureDetector {
 public:
  explicit PerfectFd(const std::vector<bool>& crashed) : crashed_(crashed) {}
  std::vector<ProcessId> suspected() const override {
    std::vector<ProcessId> out;
    for (std::uint32_t i = 0; i < crashed_.size(); ++i) {
      if (crashed_[i]) out.push_back(ProcessId{i});
    }
    return out;
  }
  bool is_suspected(ProcessId id) const override {
    return crashed_.at(id.value);
  }

 private:
  const std::vector<bool>& crashed_;
};

namespace {
std::unique_ptr<net::DelayModel> build_delays(const HarnessConfig& cfg,
                                              bool with_fast_set) {
  auto model = net::make_preset(cfg.delay_preset, cfg.mean_delay);
  if (with_fast_set) {
    auto fast = cfg.fast_set.empty()
                    ? std::vector<ProcessId>{ProcessId{0}}
                    : cfg.fast_set;
    model = std::make_unique<net::FastSetDelay>(
        std::move(model), std::move(fast), cfg.fast_factor,
        net::FastSetDelay::Scope::kBothDirections);
  }
  return model;
}
}  // namespace

ConsensusHarness::ConsensusHarness(const HarnessConfig& config)
    : config_(config), crashed_(config.n, false) {
  assert(config_.f < (config_.n + 1) / 2);  // consensus needs a majority
  Xoshiro256 stagger(derive_seed(config_.seed, "harness.stagger"));

  switch (config_.fd) {
    case FdKind::kPerfect:
      for (std::uint32_t i = 0; i < config_.n; ++i) {
        perfect_fds_.push_back(std::make_unique<PerfectFd>(crashed_));
      }
      break;
    case FdKind::kMmr: {
      mmr_net_ = std::make_unique<runtime::MmrNetwork>(
          sim_, net::Topology::full(config_.n),
          build_delays(config_, /*with_fast_set=*/true),
          derive_seed(config_.seed, "harness.mmr"));
      for (std::uint32_t i = 0; i < config_.n; ++i) {
        runtime::MmrHostConfig hc;
        hc.detector.self = ProcessId{i};
        hc.detector.n = config_.n;
        hc.detector.f = config_.f;
        hc.pacing = config_.mmr_pacing;
        hc.initial_delay = Duration(static_cast<Duration::rep>(
            stagger.next_double() *
            static_cast<double>(config_.mmr_pacing.count())));
        mmr_hosts_.push_back(
            std::make_unique<runtime::MmrHost>(sim_, *mmr_net_, hc));
      }
      break;
    }
    case FdKind::kHeartbeat:
    case FdKind::kPhiAccrual: {
      hb_net_ = std::make_unique<baselines::HeartbeatNetwork>(
          sim_, net::Topology::full(config_.n),
          build_delays(config_, /*with_fast_set=*/false),
          derive_seed(config_.seed, "harness.hb"));
      for (std::uint32_t i = 0; i < config_.n; ++i) {
        baselines::HeartbeatConfig hc;
        hc.self = ProcessId{i};
        hc.n = config_.n;
        hc.period = config_.hb_period;
        if (config_.fd == FdKind::kHeartbeat) {
          hc.rule = baselines::FixedTimeout{config_.hb_timeout};
        } else {
          baselines::PhiAccrual phi;
          phi.threshold = config_.phi_threshold;
          phi.poll = config_.hb_period / 4;
          hc.rule = phi;
        }
        hc.initial_delay = Duration(static_cast<Duration::rep>(
            stagger.next_double() *
            static_cast<double>(config_.hb_period.count())));
        hb_detectors_.push_back(
            std::make_unique<baselines::HeartbeatDetector>(sim_, *hb_net_, hc));
      }
      break;
    }
  }

  cons_net_ = std::make_unique<ConsensusNetwork>(
      sim_, net::Topology::full(config_.n),
      net::make_preset(config_.delay_preset, config_.mean_delay),
      derive_seed(config_.seed, "harness.consensus"));
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    ConsensusConfig cc;
    cc.self = ProcessId{i};
    cc.n = config_.n;
    cons_transports_.push_back(std::make_unique<NetworkConsensusTransport>(
        *cons_net_, ProcessId{i}));
    procs_.push_back(std::make_unique<ConsensusProcess>(
        sim_, *cons_transports_[i], cc, fd_for(ProcessId{i})));
    cons_transports_[i]->attach(*procs_[i]);
  }
}

ConsensusHarness::~ConsensusHarness() = default;

const core::FailureDetector& ConsensusHarness::fd_for(ProcessId id) const {
  switch (config_.fd) {
    case FdKind::kPerfect:
      return *perfect_fds_.at(id.value);
    case FdKind::kMmr:
      return mmr_hosts_.at(id.value)->detector();
    case FdKind::kHeartbeat:
    case FdKind::kPhiAccrual:
      return *hb_detectors_.at(id.value);
  }
  __builtin_unreachable();
}

bool ConsensusHarness::is_crashed(ProcessId id) const {
  return crashed_.at(id.value);
}

void ConsensusHarness::crash_everything(ProcessId id) {
  if (crashed_[id.value]) return;
  crashed_[id.value] = true;
  switch (config_.fd) {
    case FdKind::kPerfect:
      break;
    case FdKind::kMmr:
      mmr_hosts_[id.value]->crash();
      break;
    case FdKind::kHeartbeat:
    case FdKind::kPhiAccrual:
      hb_detectors_[id.value]->crash();
      break;
  }
  procs_[id.value]->crash();
  cons_net_->crash(id);
}

void ConsensusHarness::start(std::span<const Value> proposals,
                             const runtime::CrashPlan& plan) {
  assert(!started_);
  assert(proposals.size() == config_.n);
  started_ = true;
  for (auto& h : mmr_hosts_) h->start();
  for (auto& d : hb_detectors_) d->start();
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    procs_[i]->propose(proposals[i]);
  }
  for (const auto& e : plan.entries) {
    sim_.schedule_at(e.when,
                     [this, victim = e.victim] { crash_everything(victim); });
  }
}

bool ConsensusHarness::run_until_decided(Duration deadline) {
  const TimePoint limit = sim_.now() + deadline;
  // Poll in slices so we stop as soon as everyone decided.
  while (sim_.now() < limit && !all_correct_decided()) {
    sim_.run_until(std::min(limit, sim_.now() + from_millis(50)));
  }
  return all_correct_decided();
}

bool ConsensusHarness::all_correct_decided() const {
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    if (!is_crashed(ProcessId{i}) && !procs_[i]->decided()) return false;
  }
  return true;
}

std::optional<Value> ConsensusHarness::agreed_value() const {
  std::optional<Value> agreed;
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    const auto& p = *procs_[i];
    if (!p.decided()) {
      if (!is_crashed(ProcessId{i})) return std::nullopt;
      continue;
    }
    if (agreed && *agreed != p.decision()) return std::nullopt;  // violation!
    agreed = p.decision();
  }
  return agreed;
}

Round ConsensusHarness::max_round() const {
  Round r = 0;
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    if (!is_crashed(ProcessId{i})) r = std::max(r, procs_[i]->round());
  }
  return r;
}

std::optional<TimePoint> ConsensusHarness::last_decision_at() const {
  std::optional<TimePoint> last;
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    if (is_crashed(ProcessId{i})) continue;
    const auto t = procs_[i]->decided_at();
    if (!t) return std::nullopt;
    last = last ? std::max(*last, *t) : *t;
  }
  return last;
}

}  // namespace mmrfd::consensus
