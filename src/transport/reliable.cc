#include "transport/reliable.h"

#include <cassert>

#include "transport/codec.h"

namespace mmrfd::transport {

namespace {
constexpr std::uint8_t kFrameData = 'D';
constexpr std::uint8_t kFrameAck = 'A';
constexpr std::size_t kFrameHeader = 1 + 4 + 8;  // type + sender + seq

std::vector<std::uint8_t> make_frame(std::uint8_t type, ProcessId sender,
                                     std::uint64_t seq,
                                     std::span<const std::uint8_t> payload) {
  Encoder e;
  e.u8(type);
  e.u32(sender.value);
  e.u64(seq);
  auto out = e.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}
}  // namespace

bool SeqTracker::mark(std::uint64_t seq) {
  if (seq <= floor_) return false;
  if (!above_.insert(seq).second) return false;
  // Fold contiguous prefix into the floor.
  while (!above_.empty() && *above_.begin() == floor_ + 1) {
    above_.erase(above_.begin());
    ++floor_;
  }
  // Bound the out-of-order window: declare the oldest gap lost, jump the
  // floor to the oldest outstanding seq and fold again from there.
  while (above_.size() > max_window_) {
    floor_ = *above_.begin();
    above_.erase(above_.begin());
    while (!above_.empty() && *above_.begin() == floor_ + 1) {
      above_.erase(above_.begin());
      ++floor_;
    }
  }
  return true;
}

ReliableDatagram::ReliableDatagram(DatagramTransport& inner,
                                   const ReliableConfig& config)
    : inner_(inner),
      config_(config),
      next_seq_(inner.cluster_size(), 0),
      seen_(inner.cluster_size()) {
  if (config.registry == nullptr) {
    own_registry_ = std::make_unique<obs::MetricsRegistry>();
  }
  obs::MetricsRegistry& reg =
      config.registry != nullptr ? *config.registry : *own_registry_;
  data_sent_ = &reg.counter("rel.data_sent");
  retransmissions_ = &reg.counter("rel.retransmissions");
  gave_up_ = &reg.counter("rel.gave_up");
  duplicates_ = &reg.counter("rel.duplicates");
  acks_sent_ = &reg.counter("rel.acks_sent");
  malformed_ = &reg.counter("rel.malformed");
  data_bytes_sent_ = &reg.counter("rel.data_bytes_sent");
  retransmit_bytes_sent_ = &reg.counter("rel.retransmit_bytes_sent");
  ack_bytes_sent_ = &reg.counter("rel.ack_bytes_sent");
  inner_.set_handler(
      [this](std::span<const std::uint8_t> frame) { on_frame(frame); });
}

ReliableDatagram::~ReliableDatagram() { stop(); }

void ReliableDatagram::set_handler(DatagramHandler handler) {
  std::lock_guard lock(mutex_);
  handler_ = std::move(handler);
}

void ReliableDatagram::start() {
  {
    std::lock_guard lock(mutex_);
    assert(handler_ && "set_handler before start");
    if (running_) return;
    running_ = true;
    stopping_ = false;
  }
  inner_.start();
  retransmitter_ = std::thread([this] { retransmit_loop(); });
}

void ReliableDatagram::stop() {
  {
    std::lock_guard lock(mutex_);
    if (!running_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  retransmitter_.join();
  inner_.stop();
  std::lock_guard lock(mutex_);
  running_ = false;
}

void ReliableDatagram::send(ProcessId to,
                            std::span<const std::uint8_t> datagram) {
  std::vector<std::uint8_t> frame;
  {
    std::lock_guard lock(mutex_);
    const std::uint64_t seq = ++next_seq_.at(to.value);
    frame = make_frame(kFrameData, self(), seq, datagram);
    pending_.emplace(std::make_pair(to.value, seq),
                     Pending{to, frame, 0, std::chrono::steady_clock::now()});
  }
  data_sent_->add(1);
  data_bytes_sent_->add(frame.size());  // payload + 13-byte framing
  inner_.send(to, frame);
}

void ReliableDatagram::on_frame(std::span<const std::uint8_t> frame) {
  if (frame.size() < kFrameHeader) {
    malformed_->add(1);
    return;
  }
  Decoder d(frame);
  const auto type = d.u8();
  const auto sender = d.u32();
  const auto seq = d.u64();
  if (!type || !sender || !seq || *sender >= cluster_size()) {
    malformed_->add(1);
    return;
  }

  if (*type == kFrameAck) {
    std::lock_guard lock(mutex_);
    pending_.erase(std::make_pair(*sender, *seq));
    return;
  }
  if (*type != kFrameData) {
    malformed_->add(1);
    return;
  }

  // Always ack — the sender may be retransmitting because our previous ack
  // was lost.
  const auto ack = make_frame(kFrameAck, self(), *seq, {});
  inner_.send(ProcessId{*sender}, ack);
  acks_sent_->add(1);
  ack_bytes_sent_->add(ack.size());

  bool fresh = false;
  DatagramHandler handler;
  {
    std::lock_guard lock(mutex_);
    fresh = seen_.at(*sender).mark(*seq);
    handler = handler_;
  }
  if (!fresh) {
    duplicates_->add(1);
    if (config_.recorder != nullptr) {
      config_.recorder->record(obs::TraceKind::kRelDuplicate, *sender,
                               static_cast<std::uint32_t>(*seq));
    }
  }
  if (fresh && handler) {
    handler(frame.subspan(kFrameHeader));
  }
}

void ReliableDatagram::retransmit_loop() {
  std::unique_lock lock(mutex_);
  while (!stopping_) {
    cv_.wait_for(lock, config_.retransmit_interval,
                 [&] { return stopping_; });
    if (stopping_) return;
    // Collect resends under the lock, send outside it. Only frames at least
    // one interval old are due — younger ones were just transmitted and
    // their ack is plausibly still in flight.
    const auto now = std::chrono::steady_clock::now();
    std::vector<std::pair<ProcessId, std::vector<std::uint8_t>>> resend;
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (now - it->second.last_send < config_.retransmit_interval) {
        ++it;
        continue;
      }
      if (++it->second.retries > config_.max_retries) {
        gave_up_->add(1);
        it = pending_.erase(it);
        continue;
      }
      retransmissions_->add(1);
      if (config_.recorder != nullptr) {
        config_.recorder->record(obs::TraceKind::kRelRetransmit,
                                 it->second.to.value,
                                 static_cast<std::uint32_t>(it->first.second));
      }
      it->second.last_send = now;
      resend.emplace_back(it->second.to, it->second.frame);
      ++it;
    }
    lock.unlock();
    for (const auto& [to, frame] : resend) {
      retransmit_bytes_sent_->add(frame.size());
      inner_.send(to, frame);
    }
    lock.lock();
  }
}

std::size_t ReliableDatagram::unacked() const {
  std::lock_guard lock(mutex_);
  return pending_.size();
}

}  // namespace mmrfd::transport
