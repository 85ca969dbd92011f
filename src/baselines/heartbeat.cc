#include "baselines/heartbeat.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <type_traits>

#include "common/peer_range.h"

namespace mmrfd::baselines {

ArrivalWindow::ArrivalWindow(std::size_t capacity) : capacity_(capacity) {
  assert(capacity_ >= 1);
}

void ArrivalWindow::bootstrap(TimePoint now, Duration expected_interval) {
  assert(intervals_.empty() && capacity_ >= 2);
  const double mean = to_seconds(expected_interval);
  intervals_.push_back(mean * 0.75);
  intervals_.push_back(mean * 1.25);
  last_arrival_ = now;
}

void ArrivalWindow::observe(TimePoint now) {
  if (last_arrival_) {
    const double interval = to_seconds(now - *last_arrival_);
    if (intervals_.size() < capacity_) {
      intervals_.push_back(interval);
    } else {
      intervals_[next_slot_] = interval;
      next_slot_ = (next_slot_ + 1) % capacity_;
    }
  }
  last_arrival_ = now;
}

double ArrivalWindow::mean() const {
  double sum = 0.0;
  for (double x : intervals_) sum += x;
  return sum / static_cast<double>(intervals_.size());
}

std::optional<TimePoint> ArrivalWindow::predicted_next(Duration period) const {
  if (!last_arrival_) return std::nullopt;
  const double interval = intervals_.empty() ? to_seconds(period) : mean();
  return *last_arrival_ + from_seconds(interval);
}

double ArrivalWindow::phi(TimePoint now, Duration min_stddev) const {
  if (!last_arrival_ || intervals_.size() < 2) return 0.0;
  const double m = mean();
  double var = 0.0;
  for (double x : intervals_) var += (x - m) * (x - m);
  var /= static_cast<double>(intervals_.size() - 1);
  const double sd = std::max(std::sqrt(var), to_seconds(min_stddev));

  const double t = to_seconds(now - *last_arrival_);
  // P(arrival later than t) under N(mean, sd): 1 - CDF(t).
  const double z = (t - m) / sd;
  const double p_later = 0.5 * std::erfc(z / std::sqrt(2.0));
  if (p_later <= 0.0) return 1e9;  // numerically certain death
  return -std::log10(p_later);
}

template <typename Msg>
BaselineDetector<Msg>::BaselineDetector(sim::Simulation& simulation,
                                        net::Network<Msg>& network,
                                        const HeartbeatConfig& config,
                                        core::SuspicionObserver* observer)
    : sim_(simulation),
      net_(network),
      config_(config),
      observer_(observer),
      counters_(config.n, 0),
      timers_(config.n, sim::kNoEvent),
      suspected_(config.n, false) {
  assert(config_.n > 1);
  if (const auto* adaptive = std::get_if<AdaptiveTimeout>(&config_.rule)) {
    windows_.assign(config_.n, ArrivalWindow(adaptive->window));
  } else if (const auto* rule = phi_rule()) {
    windows_.assign(config_.n, ArrivalWindow(rule->window));
  }
  net_.set_handler(id(), [this](ProcessId from, const Msg& m) {
    handle(from, m);
  });
}

template <typename Msg>
void BaselineDetector<Msg>::start() {
  assert(!started_);
  started_ = true;
  sim_.schedule(config_.initial_delay, [this] {
    // Every peer is watched from the first local tick, so a peer that never
    // speaks at all is suspected too: its timer runs, or its phi window
    // starts from a plausible cadence.
    for (ProcessId peer : PeerRange::all_but(id(), config_.n)) {
      if (phi_rule() != nullptr) {
        windows_[peer.value].bootstrap(sim_.now(), config_.period);
      } else {
        arm_timer(peer);
      }
    }
    tick();
    if (phi_rule() != nullptr) poll();
  });
}

template <typename Msg>
void BaselineDetector<Msg>::crash() {
  crashed_ = true;
  net_.crash(id());
}

template <typename Msg>
void BaselineDetector<Msg>::tick() {
  if (crashed_) return;
  const std::uint64_t seq = ++counters_[id().value];
  if constexpr (std::is_same_v<Msg, HeartbeatMessage>) {
    net_.broadcast(id(), HeartbeatMessage{seq});
  } else {
    net_.broadcast(id(), GossipMessage{counters_});
  }
  sim_.schedule(config_.period, [this] { tick(); });
}

template <typename Msg>
void BaselineDetector<Msg>::poll() {
  if (crashed_) return;
  for (ProcessId peer : PeerRange::all_but(id(), config_.n)) {
    set_suspected(peer, phi(peer) >= phi_rule()->threshold);
  }
  sim_.schedule(phi_rule()->poll, [this] { poll(); });
}

template <typename Msg>
void BaselineDetector<Msg>::handle(ProcessId from, const Msg& msg) {
  if (crashed_) return;
  if constexpr (std::is_same_v<Msg, HeartbeatMessage>) {
    heard(from, msg.seq);
  } else {
    // The gossip merge: every counter that grew is a sign of life of its
    // process, whoever relayed it.
    assert(msg.counters.size() == counters_.size());
    for (ProcessId peer : PeerRange::all_but(id(), config_.n)) {
      heard(peer, msg.counters[peer.value]);
    }
  }
}

template <typename Msg>
void BaselineDetector<Msg>::heard(ProcessId peer, std::uint64_t counter) {
  if (counter <= counters_[peer.value]) return;  // stale
  counters_[peer.value] = counter;
  if (!windows_.empty()) windows_[peer.value].observe(sim_.now());
  if (phi_rule() != nullptr) return;  // the poll judges the silence
  set_suspected(peer, false);
  arm_timer(peer);
}

template <typename Msg>
void BaselineDetector<Msg>::arm_timer(ProcessId peer) {
  sim_.cancel(timers_[peer.value]);
  timers_[peer.value] =
      sim_.schedule_at(deadline(peer), [this, peer] { expire(peer); });
}

template <typename Msg>
TimePoint BaselineDetector<Msg>::deadline(ProcessId peer) const {
  const TimePoint now = sim_.now();
  if (const auto* fixed = std::get_if<FixedTimeout>(&config_.rule)) {
    return now + fixed->timeout;
  }
  // Before any arrival the prediction is one period from now.
  const TimePoint predicted = windows_[peer.value]
                                  .predicted_next(config_.period)
                                  .value_or(now + config_.period);
  return std::max(predicted, now) +
         std::get<AdaptiveTimeout>(config_.rule).safety_margin;
}

template <typename Msg>
void BaselineDetector<Msg>::expire(ProcessId peer) {
  if (crashed_) return;
  timers_[peer.value] = sim::kNoEvent;
  set_suspected(peer, true);
}

template <typename Msg>
void BaselineDetector<Msg>::set_suspected(ProcessId peer, bool suspect) {
  if (suspected_[peer.value] == suspect) return;
  suspected_[peer.value] = suspect;
  if (observer_ == nullptr) return;
  if (suspect) {
    observer_->on_suspected(peer, 0);
  } else {
    observer_->on_cleared(peer, 0);
  }
}

template <typename Msg>
double BaselineDetector<Msg>::phi(ProcessId peer) const {
  assert(phi_rule() != nullptr);
  return windows_[peer.value].phi(sim_.now(), phi_rule()->min_stddev);
}

template <typename Msg>
std::vector<ProcessId> BaselineDetector<Msg>::suspected() const {
  std::vector<ProcessId> out;
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    if (suspected_[i]) out.push_back(ProcessId{i});
  }
  return out;
}

template <typename Msg>
bool BaselineDetector<Msg>::is_suspected(ProcessId pid) const {
  return pid.value < suspected_.size() && suspected_[pid.value];
}

template class BaselineDetector<HeartbeatMessage>;
template class BaselineDetector<GossipMessage>;

}  // namespace mmrfd::baselines
