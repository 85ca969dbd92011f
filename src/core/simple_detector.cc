#include "core/simple_detector.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace mmrfd::core {

SimpleDetectorCore::SimpleDetectorCore(const SimpleDetectorConfig& config)
    : config_(config), suspected_(config.n, false) {
  if (config_.n < 1) {
    throw std::invalid_argument("SimpleDetectorConfig: n must be >= 1, got " +
                                std::to_string(config_.n));
  }
  if (config_.f >= config_.n) {
    throw std::invalid_argument(
        "SimpleDetectorConfig: f must be < n (got f=" +
        std::to_string(config_.f) + ", n=" + std::to_string(config_.n) + ")");
  }
  if (config_.self.value >= config_.n) {
    throw std::invalid_argument(
        "SimpleDetectorConfig: self must be < n (got self=" +
        std::to_string(config_.self.value) +
        ", n=" + std::to_string(config_.n) + ")");
  }
}

QueryMessage SimpleDetectorCore::start_query() {
  begin_query();
  return full_query();
}

void SimpleDetectorCore::begin_query() {
  assert(!in_progress_ || terminated_);
  ++seq_;
  in_progress_ = true;
  rec_from_.clear();
  responded_.assign(config_.n, false);
  rec_from_.push_back(config_.self);
  responded_[config_.self.value] = true;
  terminated_ = rec_from_.size() >= config_.quorum();
}

QueryMessage SimpleDetectorCore::full_query() const {
  QueryMessage q;
  q.seq = seq_;
  return q;
}

bool SimpleDetectorCore::on_response(ProcessId from,
                                     const ResponseMessage& response) {
  if (!in_progress_ || response.seq != seq_) return false;
  if (from.value >= config_.n) return false;  // forged live-path sender
  if (responded_[from.value]) return false;
  responded_[from.value] = true;
  rec_from_.push_back(from);
  // A response is direct evidence of life.
  set_suspected(from, false);
  if (!terminated_ && rec_from_.size() >= config_.quorum()) {
    terminated_ = true;
    return true;
  }
  return false;
}

bool SimpleDetectorCore::finish_round() {
  assert(terminated_);
  bool fresh = false;
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    if (i == config_.self.value || responded_[i] || suspected_[i]) continue;
    set_suspected(ProcessId{i}, true);
    fresh = true;
  }
  ++rounds_;
  in_progress_ = false;
  return fresh;
}

ResponseMessage SimpleDetectorCore::on_query(ProcessId from,
                                             const QueryMessage& query) {
  // Direct evidence of life; nothing the query carries is merged — without
  // tags, adopting third-party suspicions would poison the detector with
  // unorderable stale information. A forged live-path sender id >= n
  // indexes nothing (same guard as on_response).
  if (from.value < config_.n) set_suspected(from, false);
  ResponseMessage r;
  r.seq = query.seq;
  return r;
}

std::vector<ProcessId> SimpleDetectorCore::suspected() const {
  std::vector<ProcessId> out;
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    if (suspected_[i]) out.push_back(ProcessId{i});
  }
  return out;
}

bool SimpleDetectorCore::is_suspected(ProcessId id) const {
  return id.value < suspected_.size() && suspected_[id.value];
}

void SimpleDetectorCore::set_suspected(ProcessId id, bool suspect) {
  assert(id != config_.self || !suspect);
  if (suspected_[id.value] == suspect) return;
  suspected_[id.value] = suspect;
  if (observer_ != nullptr) {
    if (suspect) {
      observer_->on_suspected(id, 0);
    } else {
      observer_->on_cleared(id, 0);
    }
  }
}

}  // namespace mmrfd::core
