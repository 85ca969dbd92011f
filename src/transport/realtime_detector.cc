#include "transport/realtime_detector.h"

#include <chrono>
#include <utility>
#include <vector>

namespace mmrfd::transport {

RealTimeDetector::RealTimeDetector(Transport& transport,
                                   const RealTimeConfig& config)
    : transport_(transport), config_(config), core_(config.detector) {
  if (config.registry == nullptr) {
    own_registry_ = std::make_unique<obs::MetricsRegistry>();
  }
  obs::MetricsRegistry& reg =
      config.registry != nullptr ? *config.registry : *own_registry_;
  registry_ = &reg;
  full_queries_sent_ = &reg.counter("rt.full_queries_sent");
  delta_queries_sent_ = &reg.counter("rt.delta_queries_sent");
  queries_received_ = &reg.counter("rt.queries_received");
  responses_received_ = &reg.counter("rt.responses_received");
  responses_sent_ = &reg.counter("rt.responses_sent");
  need_full_sent_ = &reg.counter("rt.need_full_sent");
  need_full_received_ = &reg.counter("rt.need_full_received");
  query_bytes_sent_ = &reg.counter("rt.query_bytes_sent");
  response_bytes_sent_ = &reg.counter("rt.response_bytes_sent");
  rounds_counter_ = &reg.counter("rt.rounds");
  resend_waves_ = &reg.counter("rt.resend_waves");
  round_rtt_ns_ = &reg.histogram("rt.round_rtt_ns");
  recorder_ = config.recorder;
  core_.set_recorder(config.recorder);
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
  driver_ = std::thread([this] { driver_loop(); });
}

void RealTimeDetector::stop() {
  {
    std::lock_guard lock(mutex_);
    if (!running_) return;
    stopping_ = true;
  }
  quorum_cv_.notify_all();
  if (driver_.joinable()) driver_.join();
  transport_.stop();
  std::lock_guard lock(mutex_);
  running_ = false;
}

void RealTimeDetector::driver_loop() {
  std::unique_lock lock(mutex_);
  std::vector<ProcessId> full_peers;
  std::vector<std::pair<ProcessId, WireMessage>> deltas;
  while (!stopping_) {
    // Build the round's queries under the lock, send outside it. In delta
    // mode each peer gets its own (usually tiny) message; peers whose
    // acknowledgement lapsed — fresh peer, restart, journal overrun — all
    // receive ONE shared full encoding (built once per round, like the
    // simulated hosts' shared payload). Reference mode keeps the broadcast.
    full_peers.clear();
    deltas.clear();
    const bool delta = core_.config().delta_queries;
    const std::uint32_t n = core_.config().n;
    std::uint32_t skipped = 0;
    WireMessage full;
    core_.begin_query();
    // Captured under the lock: the round sequence stamped into every
    // causal-trace record this round (kQueryTxSeq / kQuorum).
    const std::uint32_t round_seq =
        static_cast<std::uint32_t>(core_.query_seq());
    const auto round_start = std::chrono::steady_clock::now();
    bool full_built = false;
    for (std::uint32_t i = 0; i < n; ++i) {
      const ProcessId to{i};
      if (to == core_.config().self) continue;
      // Give-up policy: peers suspected for K consecutive rounds are only
      // probed every K-th round — a crashed peer never acks, so every
      // query to it costs the full-encoding fallback forever otherwise.
      if (!core_.should_query(to)) {
        ++skipped;
        continue;
      }
      if (!delta || core_.full_query_needed(to)) {
        if (!full_built) {
          full = WireMessage{core_.full_query()};
          full_built = true;
        }
        full_peers.push_back(to);
      } else {
        deltas.emplace_back(to, WireMessage{core_.query_for(to)});
      }
    }
    lock.unlock();
    const auto query_size = [](const WireMessage& m) {
      return static_cast<std::uint64_t>(
          wire_size(std::get<core::QueryMessage>(m)));
    };
    // Every tx stamp is recorded just BEFORE its send: a peer on the same
    // clock may stamp its rx before send() even returns, and a stamp taken
    // after the fan-out would put the rx ahead of its own cause.
    const auto stamp_tx = [&](ProcessId to, std::uint64_t bytes) {
      trace(obs::TraceKind::kQueryTx, to.value,
            static_cast<std::uint32_t>(bytes));
      trace(obs::TraceKind::kQueryTxSeq, to.value, round_seq);
    };
    // Peer order (full peers, then delta peers) is irrelevant here: real
    // transports have no seeded schedule to preserve. When EVERY peer gets
    // the full encoding (reference mode, first round, mass resync) and
    // nobody is skipped, broadcast() it — the transport serializes a
    // broadcast once, while per-peer send() re-encodes per call.
    if (!full_peers.empty()) {
      const std::uint64_t full_bytes = query_size(full);
      full_queries_sent_->add(full_peers.size());
      query_bytes_sent_->add(full_bytes * full_peers.size());
      if (deltas.empty() && skipped == 0) {
        for (const ProcessId to : full_peers) stamp_tx(to, full_bytes);
        transport_.broadcast(full);
      } else {
        for (const ProcessId to : full_peers) {
          stamp_tx(to, full_bytes);
          transport_.send(to, full);
        }
      }
    }
    delta_queries_sent_->add(deltas.size());
    for (const auto& [to, msg] : deltas) {
      const std::uint64_t bytes = query_size(msg);
      query_bytes_sent_->add(bytes);
      stamp_tx(to, bytes);
      transport_.send(to, msg);
    }
    lock.lock();
    // Wait for the quorum-th response (self counts already); re-checked on
    // every incoming response. The protocol stays time-free — the only
    // exits are quorum or shutdown — but every `resend` interval without
    // quorum we re-issue the round's query to the peers still silent, as a
    // self-contained full encoding (unconditionally mergeable, no journal
    // base to miss). That restores the reliable-channel assumption the
    // model makes and a kernel UDP path does not.
    std::uint32_t resend_waves = 0;
    while (!stopping_ && !core_.query_terminated()) {
      if (quorum_cv_.wait_for(lock, config_.resend, [&] {
            return stopping_ || core_.query_terminated();
          })) {
        break;
      }
      const std::uint32_t n = core_.config().n;
      std::vector<bool> responded(n, false);
      for (const ProcessId p : core_.rec_from()) {
        if (p.value < n) responded[p.value] = true;
      }
      std::vector<ProcessId> silent;
      for (std::uint32_t i = 0; i < n; ++i) {
        const ProcessId to{i};
        if (to == core_.config().self || responded[i]) continue;
        // A peer the give-up policy elided this round was never queried:
        // resending to it would undo the whole point of the policy (dead
        // peers are exactly the ones that are always silent, and resends
        // are always full encodings — the dominant full_q source at large
        // n). But only the FIRST wave honors the skip set: a round still
        // short of quorum after a full resend interval is evidence the
        // skips were wrong (falsely suspected live peers skipped while the
        // actually-dead ate the budget) — liveness beats economy, so later
        // waves query everyone silent.
        if (resend_waves == 0 && !core_.should_query(to)) continue;
        silent.push_back(to);
      }
      ++resend_waves;
      if (silent.empty()) continue;  // termination raced the timeout
      const WireMessage refresh{core_.full_query()};
      lock.unlock();
      resend_waves_->add(1);
      full_queries_sent_->add(silent.size());
      query_bytes_sent_->add(query_size(refresh) * silent.size());
      trace(obs::TraceKind::kResendWave, resend_waves,
            static_cast<std::uint32_t>(silent.size()));
      for (const ProcessId to : silent) {
        trace(obs::TraceKind::kQueryTxSeq, to.value, round_seq);
        transport_.send(to, refresh);
      }
      lock.lock();
    }
    if (stopping_) return;
    // Quorum instant: the trace record the assembler's wire/resend-wait
    // split pivots on — everything between round open and here is quorum
    // assembly, everything after is pacing.
    trace(obs::TraceKind::kQuorum, round_seq,
          static_cast<std::uint32_t>(core_.rec_from().size()));
    // Quorum reached: the wall-clock span from query build to termination
    // is the round's RTT (the paper's "query round trip"), the live
    // counterpart of the simulator's round-RTT histogram.
    round_rtt_ns_->observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - round_start)
            .count()));
    // Pacing window: late responses keep flowing into rec_from meanwhile.
    quorum_cv_.wait_for(lock, config_.pacing, [&] { return stopping_; });
    if (stopping_) return;
    core_.finish_round();
    rounds_counter_->add(1);
  }
}

void RealTimeDetector::on_datagram(ProcessId from, const WireMessage& msg) {
  if (const auto* q = std::get_if<core::QueryMessage>(&msg)) {
    queries_received_->add(1);
    trace(obs::TraceKind::kQueryRx, from.value,
          static_cast<std::uint32_t>(q->seq));
    core::ResponseMessage response;
    {
      std::lock_guard lock(mutex_);
      response = core_.on_query(from, *q);
      // Piggyback the causal context: our own current round sequence, so
      // the querier's rx record can name the remote round it overlapped.
      response.origin_seq = core_.query_seq();
    }
    if (response.need_full) need_full_sent_->add(1);
    responses_sent_->add(1);
    response_bytes_sent_->add(wire_size(response));
    trace(obs::TraceKind::kResponseTx, from.value,
          response.need_full ? 1 : 0);
    trace(obs::TraceKind::kResponseTxSeq, from.value,
          static_cast<std::uint32_t>(response.seq));
    transport_.send(from, WireMessage{response});
  } else if (const auto* r = std::get_if<core::ResponseMessage>(&msg)) {
    responses_received_->add(1);
    if (r->need_full) need_full_received_->add(1);
    trace(obs::TraceKind::kResponseRx, from.value, r->need_full ? 1 : 0);
    trace(obs::TraceKind::kResponseRxSeq, from.value,
          static_cast<std::uint32_t>(r->seq));
    if (r->origin_seq != 0) {
      trace(obs::TraceKind::kPeerRound, from.value,
            static_cast<std::uint32_t>(r->origin_seq));
    }
    bool terminated = false;
    {
      std::lock_guard lock(mutex_);
      terminated = core_.on_response(from, *r);
    }
    if (terminated) quorum_cv_.notify_all();
  }
}

void RealTimeDetector::set_observer(core::SuspicionObserver* observer) {
  std::lock_guard lock(mutex_);
  core_.set_observer(observer);
}

std::vector<ProcessId> RealTimeDetector::suspected() const {
  std::lock_guard lock(mutex_);
  return core_.suspected();
}

bool RealTimeDetector::is_suspected(ProcessId id) const {
  std::lock_guard lock(mutex_);
  return core_.is_suspected(id);
}

std::uint64_t RealTimeDetector::rounds_completed() const {
  std::lock_guard lock(mutex_);
  return core_.rounds_completed();
}

}  // namespace mmrfd::transport
