#include "metrics/analysis.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace mmrfd::metrics {

Analysis::Analysis(const EventLog& log, std::uint32_t n, TimePoint horizon)
    : log_(log), n_(n), horizon_(horizon) {}

std::optional<TimePoint> Analysis::crash_time(ProcessId id) const {
  for (const auto& c : log_.crashes()) {
    if (c.subject == id) return c.when;
  }
  return std::nullopt;
}

std::vector<ProcessId> Analysis::correct() const {
  std::vector<ProcessId> out;
  for (std::uint32_t i = 0; i < n_; ++i) {
    if (!crash_time(ProcessId{i})) out.push_back(ProcessId{i});
  }
  return out;
}

std::vector<ProcessId> Analysis::faulty() const {
  std::vector<ProcessId> out;
  for (const auto& c : log_.crashes()) out.push_back(c.subject);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Detection> Analysis::detections() const {
  // One pass over the log builds the *final* suspicion interval per
  // (observer, subject): last kSuspected with no later kCleared. The seed
  // implementation re-scanned the whole log per (crash, observer) pair —
  // O(crashes * observers * events), which at n = 1000 with f/2 crashes is
  // ~10^10 event visits and dominated entire large-n sweeps.
  std::unordered_map<std::uint64_t, TimePoint> last_suspected;
  const auto key = [](ProcessId obs, ProcessId subj) {
    return (static_cast<std::uint64_t>(obs.value) << 32) | subj.value;
  };
  for (const auto& e : log_.events()) {
    if (e.when > horizon_) continue;
    if (e.kind == SuspicionEventKind::kSuspected) {
      last_suspected[key(e.observer, e.subject)] = e.when;
    } else if (e.kind == SuspicionEventKind::kCleared) {
      last_suspected.erase(key(e.observer, e.subject));
    }
  }
  std::vector<Detection> out;
  const auto correct_set = correct();
  out.reserve(log_.crashes().size() * correct_set.size());
  for (const auto& c : log_.crashes()) {
    for (ProcessId obs : correct_set) {
      Detection d;
      d.observer = obs;
      d.subject = c.subject;
      d.crash_at = c.when;
      if (auto it = last_suspected.find(key(obs, c.subject));
          it != last_suspected.end()) {
        d.detected_at = it->second;
      }
      out.push_back(std::move(d));
    }
  }
  return out;
}

std::vector<CrashDetectionSummary> Analysis::crash_summaries() const {
  std::vector<CrashDetectionSummary> out;
  const auto all = detections();
  for (const auto& c : log_.crashes()) {
    CrashDetectionSummary s;
    s.subject = c.subject;
    s.crash_at = c.when;
    std::optional<Duration> worst;
    bool all_detected = true;
    for (const auto& d : all) {
      if (d.subject != c.subject) continue;
      ++s.observers;
      if (auto lat = d.latency()) {
        ++s.detected_by;
        // A detection can begin *before* the crash (the process was already
        // wrongly suspected and never repaired); clamp at zero.
        const double secs = std::max(0.0, to_seconds(*lat));
        s.latencies.add(secs);
        const Duration clamped = std::max(Duration::zero(), *lat);
        worst = worst ? std::max(*worst, clamped) : clamped;
      } else {
        all_detected = false;
      }
    }
    if (all_detected && s.observers > 0) s.completeness_latency = worst;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<FalseSuspicion> Analysis::false_suspicions() const {
  std::vector<FalseSuspicion> out;
  const auto correct_set = correct();
  auto is_correct = [&](ProcessId id) {
    return std::binary_search(correct_set.begin(), correct_set.end(), id);
  };
  // Track open suspicion intervals per (observer, subject).
  std::map<std::pair<std::uint32_t, std::uint32_t>, TimePoint> open;
  for (const auto& e : log_.events()) {
    if (e.when > horizon_) continue;
    if (!is_correct(e.subject) || !is_correct(e.observer)) continue;
    const auto key = std::make_pair(e.observer.value, e.subject.value);
    if (e.kind == SuspicionEventKind::kSuspected) {
      open.emplace(key, e.when);
    } else if (e.kind == SuspicionEventKind::kCleared) {
      auto it = open.find(key);
      if (it != open.end()) {
        out.push_back(FalseSuspicion{e.observer, e.subject, it->second, e.when});
        open.erase(it);
      }
    }
  }
  for (const auto& [key, start] : open) {
    out.push_back(FalseSuspicion{ProcessId{key.first}, ProcessId{key.second},
                                 start, std::nullopt});
  }
  std::sort(out.begin(), out.end(),
            [](const FalseSuspicion& a, const FalseSuspicion& b) {
              return a.suspected_at < b.suspected_at;
            });
  return out;
}

std::vector<FalseSuspicionPoint> Analysis::false_suspicion_series() const {
  struct Edge {
    TimePoint when;
    std::int64_t delta;
  };
  std::vector<Edge> edges;
  for (const auto& fs : false_suspicions()) {
    edges.push_back({fs.suspected_at, +1});
    if (fs.cleared_at) edges.push_back({*fs.cleared_at, -1});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.when < b.when; });
  std::vector<FalseSuspicionPoint> series;
  std::int64_t active = 0;
  for (const auto& e : edges) {
    active += e.delta;
    if (!series.empty() && series.back().when == e.when) {
      series.back().active = active;
    } else {
      series.push_back({e.when, active});
    }
  }
  return series;
}

std::optional<TimePoint> Analysis::accuracy_stabilization() const {
  // Aggregate one false_suspicions() pass per subject (the seed version
  // recomputed the whole interval list once per correct process). For each
  // p: the last repair instant naming p, or disqualification if some
  // interval never closes.
  std::unordered_map<std::uint32_t, TimePoint> last_clear;
  std::unordered_set<std::uint32_t> open_forever;
  for (const auto& fs : false_suspicions()) {
    if (!fs.cleared_at) {
      open_forever.insert(fs.subject.value);
      continue;
    }
    auto [it, inserted] =
        last_clear.try_emplace(fs.subject.value, *fs.cleared_at);
    if (!inserted) it->second = std::max(it->second, *fs.cleared_at);
  }
  std::optional<TimePoint> best;
  for (ProcessId p : correct()) {
    if (open_forever.contains(p.value)) continue;
    TimePoint last = kTimeZero;
    if (auto it = last_clear.find(p.value); it != last_clear.end()) {
      last = it->second;
    }
    if (!best || last < *best) best = last;
  }
  return best;
}

std::optional<TimePoint> Analysis::full_accuracy_stabilization() const {
  TimePoint last = kTimeZero;
  for (const auto& fs : false_suspicions()) {
    if (!fs.cleared_at) return std::nullopt;
    last = std::max(last, *fs.cleared_at);
  }
  return last;
}

bool Analysis::strong_completeness() const {
  for (const auto& s : crash_summaries()) {
    if (!s.completeness_latency) return false;
  }
  return true;
}

RollupSummary summarize_rollup(const std::vector<PairRollup>& pairs,
                               const std::vector<CrashRecord>& crashes,
                               std::uint32_t n) {
  RollupSummary out;
  std::unordered_set<std::uint32_t> crashed;
  for (const auto& c : crashes) crashed.insert(c.subject.value);
  const auto is_correct = [&](ProcessId id) {
    return id.value < n && !crashed.contains(id.value);
  };

  std::unordered_map<std::uint64_t, const PairRollup*> by_key;
  by_key.reserve(pairs.size());
  const auto key = [](ProcessId obs, ProcessId subj) {
    return (static_cast<std::uint64_t>(obs.value) << 32) | subj.value;
  };
  for (const auto& p : pairs) by_key.emplace(key(p.observer, p.subject), &p);

  // Detection / completeness: a crash is detected by a correct observer iff
  // the pair's suspicion interval is still open at the end of the run; its
  // start is the detection instant (clamped at zero when the subject was
  // already wrongly suspected before it crashed and never repaired).
  const std::size_t observers = n - crashed.size();
  out.strong_completeness = true;
  double worst = 0.0;
  for (const auto& c : crashes) {
    bool all_detected = observers > 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const ProcessId obs{i};
      if (!is_correct(obs)) continue;
      const auto it = by_key.find(key(obs, c.subject));
      if (it != by_key.end() && it->second->open) {
        const double lat = std::max(
            0.0, to_seconds(it->second->open_since - c.when));
        out.detection_latencies.add(lat);
        worst = std::max(worst, lat);
      } else {
        all_detected = false;
      }
    }
    if (!all_detected) out.strong_completeness = false;
  }
  if (out.strong_completeness) out.completeness_latency = worst;

  // Wrongful suspicions: every episode between two correct processes,
  // whether repaired or still open — the same counting rule as
  // Analysis::false_suspicions().
  TimePoint last_clear = kTimeZero;
  bool any_open = false;
  for (const auto& p : pairs) {
    if (!is_correct(p.observer) || !is_correct(p.subject)) continue;
    out.false_suspicions += p.episodes;
    last_clear = std::max(last_clear, p.last_clear);
    any_open = any_open || p.open;
  }
  if (!any_open) out.clean_at = to_seconds(last_clear);
  return out;
}

}  // namespace mmrfd::metrics
