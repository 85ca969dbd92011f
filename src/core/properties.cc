#include "core/properties.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

namespace mmrfd::core {

std::vector<ProcessId> QueryRecord::winners() const {
  std::vector<ProcessId> out;
  for (std::size_t w = 0; w < winning.size(); ++w) {
    for (std::uint64_t bits = winning[w]; bits != 0; bits &= bits - 1) {
      out.push_back(ProcessId{static_cast<std::uint32_t>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits)))});
    }
  }
  return out;
}

void PropertyRecorder::record(ProcessId issuer, QuerySeq seq,
                              TimePoint terminated_at,
                              std::span<const ProcessId> winning) {
  const auto check = [this](ProcessId id, const char* what) {
    if (id.value >= n_) {
      throw std::out_of_range(std::string("PropertyRecorder: ") + what +
                              " id " + std::to_string(id.value) +
                              " is outside Pi (n=" + std::to_string(n_) + ")");
    }
  };
  check(issuer, "issuer");
  QueryRecord r;
  r.issuer = issuer;
  r.seq = seq;
  r.terminated_at = terminated_at;
  r.winning.assign((static_cast<std::size_t>(n_) + 63) / 64, 0);
  for (const ProcessId p : winning) {
    check(p, "winner");
    r.winning[p.value / 64] |= std::uint64_t{1} << (p.value % 64);
  }
  records_.push_back(std::move(r));
}

MpChecker::MpChecker(const PropertyRecorder& recorder, std::uint32_t f,
                     std::span<const ProcessId> correct)
    : recorder_(recorder), f_(f), correct_(correct.begin(), correct.end()) {
  std::sort(correct_.begin(), correct_.end());
}

double MpChecker::winning_fraction(ProcessId p, ProcessId q) const {
  std::size_t total = 0;
  std::size_t wins = 0;
  for (const auto& r : recorder_.records()) {
    if (r.issuer != q) continue;
    ++total;
    if (r.won(p)) ++wins;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(wins) / static_cast<double>(total);
}

std::size_t MpChecker::query_count(ProcessId q) const {
  std::size_t total = 0;
  for (const auto& r : recorder_.records()) {
    if (r.issuer == q) ++total;
  }
  return total;
}

MpVerdict MpChecker::check(std::size_t min_queries_after) const {
  // Accuracy-guaranteeing form: the witness must have a violation-free
  // suffix with respect to every correct issuer that produced enough
  // queries to count as evidence.
  const std::uint32_t n = recorder_.n();
  constexpr TimePoint kNever =
      TimePoint{std::numeric_limits<std::int64_t>::min()};
  std::vector<std::vector<TimePoint>> issued(n);
  for (const auto& r : recorder_.records()) {
    issued[r.issuer.value].push_back(r.terminated_at);
  }
  for (auto& v : issued) std::sort(v.begin(), v.end());

  MpVerdict best;
  for (ProcessId p : correct_) {
    std::vector<TimePoint> viol(n, kNever);
    for (const auto& r : recorder_.records()) {
      if (r.won(p)) continue;
      viol[r.issuer.value] = std::max(viol[r.issuer.value], r.terminated_at);
    }
    MpVerdict v;
    v.holds = true;
    v.holds_perpetually = true;
    v.witness = p;
    TimePoint t_star = kNever;
    for (ProcessId q : correct_) {
      const auto& times = issued[q.value];
      if (times.size() < min_queries_after) continue;  // not evidence
      const auto after = static_cast<std::size_t>(
          times.end() -
          std::upper_bound(times.begin(), times.end(), viol[q.value]));
      if (after < min_queries_after) {
        v.holds = false;
        break;
      }
      v.quorum_set.push_back(q);
      t_star = std::max(t_star, viol[q.value]);
      if (viol[q.value] != kNever) v.holds_perpetually = false;
    }
    if (!v.holds || v.quorum_set.empty()) continue;
    v.holds_from = (t_star == kNever) ? kTimeZero : t_star;
    const bool better =
        !best.holds || (v.holds_perpetually && !best.holds_perpetually) ||
        (v.holds_perpetually == best.holds_perpetually &&
         v.holds_from < best.holds_from);
    if (better) best = v;
  }
  return best;
}

MpVerdict MpChecker::check_with_quorum(std::size_t issuers,
                                       std::size_t min_queries_after) const {
  const std::uint32_t n = recorder_.n();
  MpVerdict best;

  // Per issuer q and candidate p, we need: the time of q's last query that p
  // did NOT win (viol), and the number of q's queries after any time t.
  // Precompute per-issuer sorted termination times.
  std::vector<std::vector<TimePoint>> issued(n);
  for (const auto& r : recorder_.records()) {
    issued[r.issuer.value].push_back(r.terminated_at);
  }
  for (auto& v : issued) std::sort(v.begin(), v.end());

  constexpr TimePoint kNever = TimePoint{std::numeric_limits<std::int64_t>::min()};

  for (ProcessId p : correct_) {
    // viol[q] = last violation time for (p, q); kNever if p won all of q's
    // queries; nullopt slot unused when q issued nothing.
    std::vector<std::optional<TimePoint>> viol(n);
    for (std::uint32_t q = 0; q < n; ++q) {
      if (issued[q].empty()) continue;  // never issued: cannot be in Q
      viol[q] = kNever;
    }
    for (const auto& r : recorder_.records()) {
      if (r.won(p)) continue;
      auto& v = viol[r.issuer.value];
      if (v.has_value()) v = std::max(*v, r.terminated_at);
    }

    // Candidates q, cheapest violation time first.
    struct Cand {
      ProcessId q;
      TimePoint viol_at;
    };
    std::vector<Cand> cands;
    for (std::uint32_t q = 0; q < n; ++q) {
      if (!viol[q].has_value()) continue;
      // q must still have min_queries_after queries after the violation,
      // otherwise the "eventual" suffix is vacuous for q.
      const auto& times = issued[q];
      const auto after = static_cast<std::size_t>(
          times.end() - std::upper_bound(times.begin(), times.end(),
                                         *viol[q]));
      if (after < min_queries_after) continue;
      cands.push_back({ProcessId{q}, *viol[q]});
    }
    if (cands.size() < issuers) continue;
    std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
      if (a.viol_at != b.viol_at) return a.viol_at < b.viol_at;
      return a.q < b.q;
    });

    MpVerdict v;
    v.holds = true;
    v.witness = p;
    v.quorum_set.reserve(issuers);
    TimePoint t_star = kNever;
    bool perpetual = true;
    for (std::size_t i = 0; i < issuers; ++i) {
      v.quorum_set.push_back(cands[i].q);
      t_star = std::max(t_star, cands[i].viol_at);
      if (cands[i].viol_at != kNever) perpetual = false;
    }
    v.holds_from = (t_star == kNever) ? kTimeZero : t_star;
    v.holds_perpetually = perpetual;
    std::sort(v.quorum_set.begin(), v.quorum_set.end());

    const bool better =
        !best.holds || (v.holds_perpetually && !best.holds_perpetually) ||
        (v.holds_perpetually == best.holds_perpetually &&
         v.holds_from < best.holds_from);
    if (better) best = v;
  }
  return best;
}

StabilizationChecker::StabilizationChecker(std::uint32_t n,
                                           std::span<const ProcessId> crashed)
    : n_(n),
      crashed_(n, false),
      view_(static_cast<std::size_t>(n) * n, 0) {
  for (ProcessId c : crashed) {
    if (c.value < n_) crashed_[c.value] = true;
  }
}

void StabilizationChecker::feed(TimePoint when, ProcessId observer,
                                ProcessId subject, bool suspected) {
  if (observer.value >= n_ || subject.value >= n_) return;
  if (crashed_[observer.value]) return;  // a crashed view is not evidence
  auto& cell =
      view_[static_cast<std::size_t>(observer.value) * n_ + subject.value];
  const std::uint8_t next = suspected ? 1 : 0;
  if (cell == next) return;
  cell = next;
  last_change_ = std::max(last_change_, when);
}

StabilizationVerdict StabilizationChecker::verdict() const {
  StabilizationVerdict v;
  v.stabilized_at = last_change_;
  for (std::uint32_t o = 0; o < n_; ++o) {
    if (crashed_[o]) continue;
    for (std::uint32_t s = 0; s < n_; ++s) {
      if (s == o) continue;
      const bool suspects =
          view_[static_cast<std::size_t>(o) * n_ + s] != 0;
      if (crashed_[s] && !suspects) {
        v.missing.emplace_back(ProcessId{o}, ProcessId{s});
      } else if (!crashed_[s] && suspects) {
        v.false_suspicions.emplace_back(ProcessId{o}, ProcessId{s});
      }
    }
  }
  v.converged = v.missing.empty() && v.false_suspicions.empty();
  return v;
}

}  // namespace mmrfd::core
