#include "transport/realtime_detector.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/peer_range.h"
#include "common/rng.h"

namespace mmrfd::transport {

namespace {

/// The longest one poll waits, so stop() is noticed promptly.
constexpr Duration kMaxPollWait = std::chrono::milliseconds(50);

TimePoint steady_now() {
  return std::chrono::duration_cast<Duration>(
      std::chrono::steady_clock::now().time_since_epoch());
}

core::RoundDriverConfig driver_config(const RealTimeConfig& config,
                                      obs::MetricsRegistry& registry) {
  core::RoundDriverConfig d;
  d.pacing = config.pacing;
  d.resend = config.resend;
  d.recorder = config.recorder;
  d.round_rtt_ns = &registry.histogram("rt.round_rtt_ns");
  d.rounds = &registry.counter("rt.rounds");
  d.resend_waves = &registry.counter("rt.resend_waves");
  return d;
}

}  // namespace

RealTimeDetector::RealTimeDetector(TypedTransport& transport,
                                   const RealTimeConfig& config)
    : transport_(transport),
      config_(config),
      driver_(config.detector, driver_config(config, *registry_)) {
  transport_.set_handler([this](ProcessId from, const WireMessage& msg) {
    on_datagram(from, msg);
  });
}

RealTimeDetector::~RealTimeDetector() { stop(); }

void RealTimeDetector::start() {
  if (thread_.joinable()) return;
  transport_.start();  // a bind failure throws before any thread exists
  stopping_.store(false);
  thread_ = std::thread([this] { run(); });
}

void RealTimeDetector::stop() {
  if (!thread_.joinable()) return;
  stopping_.store(true);
  thread_.join();
  transport_.stop();
}

void RealTimeDetector::run() {
  const auto plan = [this](core::Outgoing&& q) {
    outgoing_.push_back(std::move(q));
  };
  // The fan-out order: every id but self, ascending.
  const PeerRange peers = driver_.core().known();
  // The first round waits a share of one pause, drawn inside the node's own
  // 1/n stratum of it, so the nodes' rounds start out of step and evenly
  // spread. In step, every observer of a crash opens its detecting round at
  // about the same instant, so the first detection, which the others then
  // merge, comes later; a wide gap between phases delays a crash that falls
  // in it. mmrfd-node releases a cluster at one instant, so these draws
  // alone set the phases (a share of the whole pause left gaps of up to
  // 17 ms at n = 16). The caller sees to it that the peers are bound: a
  // query to an unbound peer is lost until the round's first resend wave.
  Xoshiro256 stagger(
      derive_seed(0, "rt.first_issue", config_.detector.self.value));
  const double share = (config_.detector.self.value + stagger.next_double()) /
                       static_cast<double>(config_.detector.n);
  const TimePoint first_issue =
      steady_now() + Duration(static_cast<Duration::rep>(
                         share * static_cast<double>(config_.pacing.count())));
  while (!stopping_.load()) {
    // The protocol stays time-free: a deadline only ever re-sends, ends the
    // grace or ends the pause. A response handled inside poll() may reach
    // the quorum and move it, so it is read again after every poll.
    const TimePoint now = steady_now();
    const TimePoint due = std::max(*driver_.deadline(), first_issue);
    if (now < due) {
      transport_.poll(std::min(due - now, kMaxPollWait));
      continue;
    }
    {
      std::lock_guard lock(mutex_);
      driver_.on_deadline(now, peers, plan);
    }
    transmit();
  }
}

void RealTimeDetector::transmit() {
  if (outgoing_.empty()) return;
  // Every peer shares one payload (reference mode, first round, mass
  // resync, or one delta base for all): broadcast() serializes it once,
  // per-peer send() per call. Peers on different bases never share one.
  const bool broadcast =
      outgoing_.size() == driver_.core().known().size() &&
      std::all_of(outgoing_.begin(), outgoing_.end(),
                  [&](const core::Outgoing& q) {
                    return q.query == outgoing_.front().query;
                  });
  for (const core::Outgoing& q : outgoing_) {
    const WireMessage& msg = *q.query;
    const auto& query = std::get<core::QueryMessage>(msg);
    (query.is_delta() ? delta_queries_sent_ : full_queries_sent_)->add(1);
    query_bytes_sent_->add(wire_size(query));
    if (!broadcast) transport_.send(q.to, msg);
  }
  if (broadcast) transport_.broadcast(*outgoing_.front().query);
  outgoing_.clear();
}

void RealTimeDetector::on_datagram(ProcessId from, const WireMessage& msg) {
  if (const auto* q = std::get_if<core::QueryMessage>(&msg)) {
    queries_received_->add(1);
    core::ResponseMessage response;
    {
      std::lock_guard lock(mutex_);
      response = driver_.handle_query(from, *q);
      // Piggyback the causal context: our own current round sequence, so
      // the querier's rx record can name the remote round it overlapped.
      response.origin_seq = driver_.core().query_seq();
    }
    if (response.need_full) need_full_sent_->add(1);
    responses_sent_->add(1);
    response_bytes_sent_->add(wire_size(response));
    transport_.send(from, WireMessage{response});
  } else if (const auto* r = std::get_if<core::ResponseMessage>(&msg)) {
    responses_received_->add(1);
    if (r->need_full) need_full_received_->add(1);
    std::lock_guard lock(mutex_);
    driver_.handle_response(steady_now(), from, *r);
  }
}

std::vector<ProcessId> RealTimeDetector::suspected() const {
  std::lock_guard lock(mutex_);
  return driver_.core().suspected();
}

bool RealTimeDetector::is_suspected(ProcessId id) const {
  std::lock_guard lock(mutex_);
  return driver_.core().is_suspected(id);
}

std::uint64_t RealTimeDetector::rounds_completed() const {
  std::lock_guard lock(mutex_);
  return driver_.core().rounds_completed();
}

}  // namespace mmrfd::transport
