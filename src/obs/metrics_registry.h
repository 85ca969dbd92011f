// Unified cross-layer metrics: named counters, gauges and fixed-bucket
// log-scale histograms behind one registry.
//
// Design constraints, in order:
//  - The hot path is an increment from a live node's protocol thread (its
//    transport's poll included) or a shard worker. Every instrument is a
//    plain relaxed atomic, so recording is lock-free and wait-free; the
//    registry mutex is only taken at name-resolution time, and components
//    cache the returned reference (references are stable for the
//    registry's lifetime — instruments live in node-based maps and are
//    never erased).
//  - Collection must be schedule-neutral: no RNG, no event scheduling, no
//    allocation on the record path. Snapshotting allocates, but only the
//    reader does it.
//  - Histograms must cover nanosecond-scale latencies through multi-second
//    tails in O(1) memory with bounded relative error: 16 exact buckets
//    for values < 16, then 4 sub-buckets per power of two (≤ 12.5% bucket
//    width), 256 buckets total for the full uint64 range.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mmrfd::obs {

// Monotonically increasing event count. Relaxed: totals are read at
// snapshot time, never used for inter-thread ordering.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-write-wins instantaneous value (buffer sizes, configured limits).
class Gauge {
 public:
  void set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Fixed-layout log-scale histogram over uint64 samples.
//
// Bucket layout: values 0..15 get one exact bucket each; for v >= 16 the
// octave is floor(log2 v) in 4..63 and each octave is split into 4 equal
// sub-buckets, indexed 16 + (octave-4)*4 + sub. That is 16 + 60*4 = 256
// buckets covering the whole uint64 range with <= 2^(octave-2)-wide
// buckets (relative width 1/4 of the value's magnitude).
class Histogram {
 public:
  static constexpr std::uint32_t kBuckets = 256;
  static constexpr std::uint64_t kLinearMax = 16;  // exact below this

  void observe(std::uint64_t value) {
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket_count(std::uint32_t index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }

  static std::uint32_t bucket_index(std::uint64_t value) {
    if (value < kLinearMax) return static_cast<std::uint32_t>(value);
    const std::uint32_t octave =
        63u - static_cast<std::uint32_t>(std::countl_zero(value));
    const std::uint32_t sub =
        static_cast<std::uint32_t>((value >> (octave - 2)) & 3u);
    return 16u + (octave - 4u) * 4u + sub;
  }

  // Inclusive lower bound of a bucket.
  static std::uint64_t bucket_lower(std::uint32_t index) {
    if (index < kLinearMax) return index;
    const std::uint32_t octave = 4u + (index - 16u) / 4u;
    const std::uint32_t sub = (index - 16u) % 4u;
    return static_cast<std::uint64_t>(4u + sub) << (octave - 2u);
  }

  // Width of a bucket (bucket covers [lower, lower + width)).
  static std::uint64_t bucket_width(std::uint32_t index) {
    if (index < kLinearMax) return 1;
    const std::uint32_t octave = 4u + (index - 16u) / 4u;
    return std::uint64_t{1} << (octave - 2u);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

// ---------------------------------------------------------------------------
// Snapshots: plain-data copies taken by readers (report writers, the
// supervisor aggregator, bench emitters). Sorted by name, comparable,
// mergeable across nodes/shards.

struct CounterSnapshot {
  std::string name;
  std::uint64_t value{0};
  friend bool operator==(const CounterSnapshot&,
                         const CounterSnapshot&) = default;
};

struct GaugeSnapshot {
  std::string name;
  std::int64_t value{0};
  friend bool operator==(const GaugeSnapshot&,
                         const GaugeSnapshot&) = default;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count{0};
  std::uint64_t sum{0};
  // Sparse non-zero buckets as (index, count), ascending by index.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  // Linear interpolation within the containing bucket; q in [0, 1].
  double percentile(double q) const;

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

struct RegistrySnapshot {
  std::vector<CounterSnapshot> counters;      // sorted by name
  std::vector<GaugeSnapshot> gauges;          // sorted by name
  std::vector<HistogramSnapshot> histograms;  // sorted by name

  const CounterSnapshot* find_counter(std::string_view name) const;
  const GaugeSnapshot* find_gauge(std::string_view name) const;
  const HistogramSnapshot* find_histogram(std::string_view name) const;
  std::uint64_t counter_value(std::string_view name) const {
    const CounterSnapshot* c = find_counter(name);
    return c ? c->value : 0;
  }

  // Element-wise accumulate `other` into this snapshot: counters, gauges
  // and histogram buckets sum (gauges sum too — cluster-wide totals of
  // per-node instantaneous values, e.g. receive-buffer bytes).
  void merge(const RegistrySnapshot& other);

  friend bool operator==(const RegistrySnapshot&,
                         const RegistrySnapshot&) = default;
};

// ---------------------------------------------------------------------------

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create by name. Returned references stay valid for the
  // registry's lifetime; call once and cache the reference.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  RegistrySnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace mmrfd::obs
