#include "transport/realtime_detector.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "common/peer_range.h"
#include "common/rng.h"
#include "transport/codec.h"

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

RealTimeDetector::RealTimeDetector(DatagramTransport& transport,
                                   const RealTimeConfig& config)
    : transport_(transport),
      config_(config),
      driver_(config.detector, driver_config(config, *registry_)) {
  transport_.set_handler(
      [this](ProcessId from, std::span<const std::uint8_t> datagram) {
        on_datagram(from, datagram);
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
  // The driver builds each distinct query of a fan-out once (the full
  // encoding, one delta per acknowledged base) and every recipient shares
  // its pointer, so a payload is encoded at its first recipient and the
  // rest get the same bytes.
  std::vector<std::pair<const WireMessage*, std::vector<std::uint8_t>>>
      encoded;
  for (const core::Outgoing& q : outgoing_) {
    auto it = std::find_if(encoded.begin(), encoded.end(), [&](const auto& e) {
      return e.first == q.query.get();
    });
    if (it == encoded.end()) {
      it = encoded.emplace(encoded.end(), q.query.get(),
                           encode_message(*q.query));
    }
    const auto& query = std::get<core::QueryMessage>(*q.query);
    (query.is_delta() ? delta_queries_sent_ : full_queries_sent_)->add(1);
    query_bytes_sent_->add(it->second.size());
    transport_.send(q.to, it->second);
  }
  outgoing_.clear();
}

void RealTimeDetector::on_datagram(ProcessId from,
                                   std::span<const std::uint8_t> datagram) {
  std::optional<WireMessage> msg;
  if (from.value < config_.detector.n) msg = decode_message(datagram);
  if (!msg) {
    malformed_->add(1);
    return;
  }
  if (const auto* q = std::get_if<core::QueryMessage>(&*msg)) {
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
    const auto bytes = encode_message(WireMessage{response});
    response_bytes_sent_->add(bytes.size());
    transport_.send(from, bytes);
  } else {
    const auto& r = std::get<core::ResponseMessage>(*msg);
    responses_received_->add(1);
    if (r.need_full) need_full_received_->add(1);
    std::lock_guard lock(mutex_);
    driver_.handle_response(steady_now(), from, r);
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
