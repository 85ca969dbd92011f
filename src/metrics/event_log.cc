#include "metrics/event_log.h"

#include <algorithm>

namespace mmrfd::metrics {

namespace {
std::uint64_t pair_key(ProcessId observer, ProcessId subject) {
  return (static_cast<std::uint64_t>(observer.value) << 32) | subject.value;
}
}  // namespace

void EventLog::apply(TimePoint when, ProcessId observer, ProcessId subject,
                     SuspicionEventKind kind, Tag tag) {
  if (mode_ == LogMode::kFull) {
    events_.push_back(SuspicionEvent{when, observer, subject, kind, tag});
    return;
  }
  PairState& p = pairs_[pair_key(observer, subject)];
  switch (kind) {
    case SuspicionEventKind::kSuspected:
      if (!p.open) {
        p.open = true;
        p.open_since = when;
        ++p.episodes;
      }
      break;
    case SuspicionEventKind::kCleared:
      if (p.open) {
        p.open = false;
        p.last_clear = std::max(p.last_clear, when);
      }
      break;
    case SuspicionEventKind::kMistake:
      ++p.mistakes;
      break;
  }
}

void EventLog::record(ProcessId observer, ProcessId subject,
                      SuspicionEventKind kind, Tag tag) {
  apply(sim_.now(), observer, subject, kind, tag);
}

void EventLog::record_crash(ProcessId subject) {
  crashes_.push_back(CrashRecord{subject, sim_.now()});
}

std::vector<PairRollup> EventLog::rollup() const {
  if (mode_ == LogMode::kFull) {
    // The stream is the only copy: fold it through the same rule.
    EventLog folded(sim_, LogMode::kRollup);
    for (const SuspicionEvent& e : events_) folded.append(e);
    return folded.rollup();
  }
  std::vector<PairRollup> out;
  out.reserve(pairs_.size());
  for (const auto& [key, p] : pairs_) {
    PairRollup r;
    r.observer = ProcessId{static_cast<std::uint32_t>(key >> 32)};
    r.subject = ProcessId{static_cast<std::uint32_t>(key & 0xffffffffu)};
    r.open = p.open;
    r.open_since = p.open_since;
    r.last_clear = p.last_clear;
    r.episodes = p.episodes;
    r.mistakes = p.mistakes;
    out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const PairRollup& a, const PairRollup& b) {
              if (a.observer != b.observer) return a.observer < b.observer;
              return a.subject < b.subject;
            });
  return out;
}

std::size_t EventLog::approx_retained_bytes() const {
  std::size_t bytes = events_.capacity() * sizeof(SuspicionEvent) +
                      crashes_.capacity() * sizeof(CrashRecord);
  if (mode_ == LogMode::kRollup) {
    // unordered_map node overhead (~2 pointers) + bucket array estimate.
    const std::size_t per_pair =
        sizeof(std::uint64_t) + sizeof(PairState) + 2 * sizeof(void*);
    bytes += pairs_.size() * per_pair + pairs_.bucket_count() * sizeof(void*);
  }
  return bytes;
}

core::SuspicionObserver* EventLog::observer_for(ProcessId observer_id) {
  adapters_.push_back(std::make_unique<NodeObserver>(*this, observer_id));
  return adapters_.back().get();
}

}  // namespace mmrfd::metrics
