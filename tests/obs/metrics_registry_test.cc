// Unit tests for the obs metrics registry: histogram bucket math at every
// boundary, exact totals under concurrent writers, snapshot/merge algebra
// and the text/JSON emitters.
#include "obs/metrics_registry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

namespace mmrfd::obs {
namespace {

// --- Histogram bucket layout -------------------------------------------------

TEST(HistogramBuckets, ValuesBelowLinearMaxAreExact) {
  for (std::uint64_t v = 0; v < Histogram::kLinearMax; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), v);
    EXPECT_EQ(Histogram::bucket_lower(static_cast<std::uint32_t>(v)), v);
    EXPECT_EQ(Histogram::bucket_width(static_cast<std::uint32_t>(v)), 1u);
  }
}

TEST(HistogramBuckets, LowerBoundRoundTripsForEveryBucket) {
  for (std::uint32_t idx = 0; idx < Histogram::kBuckets; ++idx) {
    const std::uint64_t lower = Histogram::bucket_lower(idx);
    const std::uint64_t width = Histogram::bucket_width(idx);
    // Both edges of the bucket map back to it: [lower, lower + width - 1].
    EXPECT_EQ(Histogram::bucket_index(lower), idx) << "lower of " << idx;
    EXPECT_EQ(Histogram::bucket_index(lower + width - 1), idx)
        << "upper of " << idx;
  }
}

TEST(HistogramBuckets, BucketsTileTheRangeWithoutGaps) {
  // Each bucket ends exactly where the next begins (the last bucket's upper
  // edge is 2^64 - 1, checked via the round-trip test above).
  for (std::uint32_t idx = 0; idx + 1 < Histogram::kBuckets; ++idx) {
    EXPECT_EQ(Histogram::bucket_lower(idx) + Histogram::bucket_width(idx),
              Histogram::bucket_lower(idx + 1))
        << "gap after bucket " << idx;
  }
}

TEST(HistogramBuckets, IndexIsMonotoneAcrossOctaveEdges) {
  std::uint32_t prev = Histogram::bucket_index(0);
  for (std::uint32_t shift = 0; shift < 64; ++shift) {
    const std::uint64_t pow2 = std::uint64_t{1} << shift;
    for (const std::uint64_t v : {pow2 - 1, pow2, pow2 + 1}) {
      const std::uint32_t idx = Histogram::bucket_index(v);
      EXPECT_LT(idx, Histogram::kBuckets);
      EXPECT_GE(idx, Histogram::bucket_index(v == 0 ? 0 : v - 1));
      prev = std::max(prev, idx);
    }
  }
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<std::uint64_t>::max()),
            Histogram::kBuckets - 1);
}

TEST(HistogramBuckets, RelativeWidthIsBoundedAboveLinearRange) {
  for (std::uint32_t idx = Histogram::kLinearMax; idx < Histogram::kBuckets;
       ++idx) {
    const std::uint64_t lower = Histogram::bucket_lower(idx);
    const std::uint64_t width = Histogram::bucket_width(idx);
    // 4 sub-buckets per octave: width is exactly lower/4 rounded to the
    // octave's granularity, so relative error is <= 25% of the lower bound.
    EXPECT_LE(width * 4, lower + 3) << "bucket " << idx;
  }
}

// --- Histogram observation ---------------------------------------------------

TEST(Histogram, ObserveTracksCountSumAndBuckets) {
  Histogram h;
  h.observe(0);
  h.observe(5);
  h.observe(5);
  h.observe(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1010u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(5), 2u);
  EXPECT_EQ(h.bucket_count(Histogram::bucket_index(1000)), 1u);
}

TEST(HistogramSnapshot, PercentileInterpolatesWithinExactBuckets) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("t");
  for (std::uint64_t v = 0; v < 16; ++v) h.observe(v);
  const RegistrySnapshot snap = reg.snapshot();
  const HistogramSnapshot* hs = snap.find_histogram("t");
  ASSERT_NE(hs, nullptr);
  EXPECT_DOUBLE_EQ(hs->percentile(0.5), 8.0);
  EXPECT_DOUBLE_EQ(hs->percentile(0.0), 0.0);
  EXPECT_NEAR(hs->percentile(0.99), 15.84, 1e-9);
  EXPECT_DOUBLE_EQ(hs->percentile(1.0), 16.0);  // top of the last bucket
  EXPECT_DOUBLE_EQ(hs->mean(), 7.5);
}

TEST(HistogramSnapshot, PercentileOfEmptyIsZero) {
  HistogramSnapshot hs;
  EXPECT_DOUBLE_EQ(hs.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(hs.mean(), 0.0);
}

// --- Registry ---------------------------------------------------------------

TEST(MetricsRegistry, GetOrCreateReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&reg.counter("y"), &a);
  EXPECT_EQ(&reg.gauge("x"), &reg.gauge("x"));  // separate namespace
  EXPECT_EQ(&reg.histogram("x"), &reg.histogram("x"));
}

TEST(MetricsRegistry, SnapshotIsSortedAndFindable) {
  MetricsRegistry reg;
  reg.counter("zeta").add(3);
  reg.counter("alpha").add(1);
  reg.gauge("mid").set(-7);
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "zeta");
  EXPECT_EQ(snap.counter_value("zeta"), 3u);
  EXPECT_EQ(snap.counter_value("missing"), 0u);
  ASSERT_NE(snap.find_gauge("mid"), nullptr);
  EXPECT_EQ(snap.find_gauge("mid")->value, -7);
  EXPECT_EQ(snap.find_counter("mid"), nullptr);
}

TEST(MetricsRegistry, ConcurrentWritersProduceExactTotals) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Mix pre-resolved and by-name access: the registry lock only guards
      // name resolution, the instruments themselves are relaxed atomics.
      Counter& hot = reg.counter("hot");
      Histogram& lat = reg.histogram("lat");
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        hot.add(1);
        lat.observe(i % 64);
        if (i % 1024 == 0) reg.counter("cold." + std::to_string(t)).add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  const RegistrySnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("hot"), kThreads * kPerThread);
  const HistogramSnapshot* lat = snap.find_histogram("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const auto& [idx, c] : lat->buckets) bucket_total += c;
  EXPECT_EQ(bucket_total, lat->count);
}

// --- Snapshot merge ----------------------------------------------------------

TEST(RegistrySnapshot, MergeSumsOverlappingAndKeepsDisjoint) {
  MetricsRegistry a;
  a.counter("shared").add(10);
  a.counter("only_a").add(1);
  a.gauge("g").set(5);
  a.histogram("h").observe(3);
  a.histogram("h").observe(100);

  MetricsRegistry b;
  b.counter("shared").add(32);
  b.counter("only_b").add(2);
  b.gauge("g").set(7);
  b.histogram("h").observe(3);

  RegistrySnapshot merged = a.snapshot();
  merged.merge(b.snapshot());

  EXPECT_EQ(merged.counter_value("shared"), 42u);
  EXPECT_EQ(merged.counter_value("only_a"), 1u);
  EXPECT_EQ(merged.counter_value("only_b"), 2u);
  EXPECT_EQ(merged.find_gauge("g")->value, 12);
  const HistogramSnapshot* h = merged.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3u);
  EXPECT_EQ(h->sum, 106u);
  ASSERT_EQ(h->buckets.size(), 2u);
  EXPECT_EQ(h->buckets[0].first, Histogram::bucket_index(3));
  EXPECT_EQ(h->buckets[0].second, 2u);  // one from each registry
}

TEST(RegistrySnapshot, MergeIntoEmptyIsIdentity) {
  MetricsRegistry reg;
  reg.counter("c").add(4);
  reg.histogram("h").observe(9);
  RegistrySnapshot empty;
  empty.merge(reg.snapshot());
  EXPECT_EQ(empty, reg.snapshot());
}

}  // namespace
}  // namespace mmrfd::obs
