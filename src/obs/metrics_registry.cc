#include "obs/metrics_registry.h"

#include <algorithm>

namespace mmrfd::obs {
namespace {

template <typename Snapshot>
const Snapshot* find_by_name(const std::vector<Snapshot>& sorted,
                             std::string_view name) {
  const auto it = std::lower_bound(
      sorted.begin(), sorted.end(), name,
      [](const Snapshot& s, std::string_view n) { return s.name < n; });
  return (it != sorted.end() && it->name == name) ? &*it : nullptr;
}

// Merge `from` into `into`, matching by name (both sorted); `combine`
// folds a source entry into an existing destination entry.
template <typename Snapshot, typename Combine>
void merge_sorted(std::vector<Snapshot>& into,
                  const std::vector<Snapshot>& from, Combine combine) {
  std::vector<Snapshot> out;
  out.reserve(into.size() + from.size());
  auto a = into.begin();
  auto b = from.begin();
  while (a != into.end() || b != from.end()) {
    if (b == from.end() || (a != into.end() && a->name < b->name)) {
      out.push_back(std::move(*a++));
    } else if (a == into.end() || b->name < a->name) {
      out.push_back(*b++);
    } else {
      combine(*a, *b);
      out.push_back(std::move(*a++));
      ++b;
    }
  }
  into = std::move(out);
}

}  // namespace

double HistogramSnapshot::percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample, 1-based; walk the cumulative distribution.
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (const auto& [index, bucket_count] : buckets) {
    const std::uint64_t next = cumulative + bucket_count;
    if (static_cast<double>(next) >= target) {
      const double lower =
          static_cast<double>(Histogram::bucket_lower(index));
      const double width =
          static_cast<double>(Histogram::bucket_width(index));
      const double into_bucket =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(bucket_count);
      return lower + width * std::clamp(into_bucket, 0.0, 1.0);
    }
    cumulative = next;
  }
  // All mass consumed without reaching the target (q == 1 with rounding):
  // report the top of the last non-empty bucket.
  const std::uint32_t last = buckets.back().first;
  return static_cast<double>(Histogram::bucket_lower(last) +
                             Histogram::bucket_width(last));
}

const CounterSnapshot* RegistrySnapshot::find_counter(
    std::string_view name) const {
  return find_by_name(counters, name);
}

const GaugeSnapshot* RegistrySnapshot::find_gauge(
    std::string_view name) const {
  return find_by_name(gauges, name);
}

const HistogramSnapshot* RegistrySnapshot::find_histogram(
    std::string_view name) const {
  return find_by_name(histograms, name);
}

void RegistrySnapshot::merge(const RegistrySnapshot& other) {
  merge_sorted(counters, other.counters,
               [](CounterSnapshot& a, const CounterSnapshot& b) {
                 a.value += b.value;
               });
  merge_sorted(gauges, other.gauges,
               [](GaugeSnapshot& a, const GaugeSnapshot& b) {
                 a.value += b.value;
               });
  merge_sorted(histograms, other.histograms,
               [](HistogramSnapshot& a, const HistogramSnapshot& b) {
                 a.count += b.count;
                 a.sum += b.sum;
                 std::vector<std::pair<std::uint32_t, std::uint64_t>> merged;
                 merged.reserve(a.buckets.size() + b.buckets.size());
                 auto x = a.buckets.begin();
                 auto y = b.buckets.begin();
                 while (x != a.buckets.end() || y != b.buckets.end()) {
                   if (y == b.buckets.end() ||
                       (x != a.buckets.end() && x->first < y->first)) {
                     merged.push_back(*x++);
                   } else if (x == a.buckets.end() || y->first < x->first) {
                     merged.push_back(*y++);
                   } else {
                     merged.emplace_back(x->first, x->second + y->second);
                     ++x;
                     ++y;
                   }
                 }
                 a.buckets = std::move(merged);
               });
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_
              .emplace(std::string(name), std::make_unique<Histogram>())
              .first->second;
}

RegistrySnapshot MetricsRegistry::snapshot() const {
  RegistrySnapshot snap;
  std::lock_guard lock(mutex_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back({name, counter->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back({name, gauge->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.name = name;
    h.count = histogram->count();
    h.sum = histogram->sum();
    for (std::uint32_t i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t c = histogram->bucket_count(i);
      if (c != 0) h.buckets.emplace_back(i, c);
    }
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

}  // namespace mmrfd::obs
