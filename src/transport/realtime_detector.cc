#include "transport/realtime_detector.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

namespace mmrfd::transport {

namespace {

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

RealTimeDetector::RealTimeDetector(Transport& transport,
                                   const RealTimeConfig& config)
    : transport_(transport),
      config_(config),
      driver_(config.detector, driver_config(config, *registry_)) {
  for (std::uint32_t i = 0; i < config.detector.n; ++i) {
    if (i != config.detector.self.value) peers_.push_back(ProcessId{i});
  }
  transport_.set_handler([this](ProcessId from, const WireMessage& msg) {
    on_datagram(from, msg);
  });
}

RealTimeDetector::~RealTimeDetector() { stop(); }

void RealTimeDetector::start() {
  {
    std::lock_guard lock(mutex_);
    if (running_) return;
    running_ = true;
    stopping_ = false;
  }
  try {
    transport_.start();
  } catch (...) {
    // Bind/socket failure is a routine live-path event (occupied port).
    // Roll back so the destructor's stop() does not try to join a thread
    // that was never started — that would terminate() the process.
    std::lock_guard lock(mutex_);
    running_ = false;
    throw;
  }
  driver_thread_ = std::thread([this] { driver_loop(); });
}

void RealTimeDetector::stop() {
  {
    std::lock_guard lock(mutex_);
    if (!running_) return;
    stopping_ = true;
  }
  quorum_cv_.notify_all();
  if (driver_thread_.joinable()) driver_thread_.join();
  transport_.stop();
  std::lock_guard lock(mutex_);
  running_ = false;
}

void RealTimeDetector::driver_loop() {
  const auto plan = [this](core::Outgoing&& q) {
    outgoing_.push_back(std::move(q));
  };
  std::unique_lock lock(mutex_);
  while (!stopping_) {
    driver_.on_deadline(steady_now(), peers_, plan);
    transmit(lock);
    // The protocol stays time-free: a deadline only ever re-sends or ends
    // the pacing pause. A quorum moves it, and on_datagram wakes us then.
    const TimePoint due = *driver_.deadline();
    quorum_cv_.wait_until(
        lock,
        std::chrono::steady_clock::time_point(
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                due)),
        [&] { return stopping_ || driver_.deadline() != due; });
  }
}

void RealTimeDetector::transmit(std::unique_lock<std::mutex>& lock) {
  if (outgoing_.empty()) return;
  lock.unlock();
  // Every peer on the full encoding (reference mode, first round, mass
  // resync): broadcast() serializes it once, per-peer send() per call.
  const bool broadcast =
      outgoing_.size() == peers_.size() &&
      std::all_of(outgoing_.begin(), outgoing_.end(),
                  [](const core::Outgoing& q) { return q.full != nullptr; });
  for (const core::Outgoing& q : outgoing_) {
    const WireMessage& msg = q.full ? *q.full : q.delta;
    const auto bytes = wire_size(std::get<core::QueryMessage>(msg));
    (q.full ? full_queries_sent_ : delta_queries_sent_)->add(1);
    query_bytes_sent_->add(bytes);
    // Stamped before the send: a peer on the same clock may stamp its rx
    // before send() even returns.
    trace(obs::TraceKind::kQueryTx, q.to.value,
          static_cast<std::uint32_t>(bytes));
    if (!broadcast) transport_.send(q.to, msg);
  }
  if (broadcast) transport_.broadcast(*outgoing_.front().full);
  outgoing_.clear();
  lock.lock();
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
    trace(obs::TraceKind::kResponseTx, from.value,
          response.need_full ? 1 : 0);
    transport_.send(from, WireMessage{response});
  } else if (const auto* r = std::get_if<core::ResponseMessage>(&msg)) {
    responses_received_->add(1);
    if (r->need_full) need_full_received_->add(1);
    trace(obs::TraceKind::kResponseRx, from.value, r->need_full ? 1 : 0);
    bool quorum = false;
    {
      std::lock_guard lock(mutex_);
      quorum = driver_.handle_response(steady_now(), from, *r);
    }
    if (quorum) quorum_cv_.notify_all();
  }
}

void RealTimeDetector::set_observer(core::SuspicionObserver* observer) {
  std::lock_guard lock(mutex_);
  driver_.core().set_observer(observer);
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
