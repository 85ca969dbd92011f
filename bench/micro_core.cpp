// Micro-benchmarks of the protocol core's hot paths: per-event costs of the
// sans-I/O state machine (what a deployment pays per received message).
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/detector_core.h"

using namespace mmrfd;
using core::DetectorConfig;
using core::DetectorCore;
using core::QueryMessage;
using core::ResponseMessage;

namespace {

DetectorConfig cfg(std::uint32_t n, std::uint32_t f) {
  DetectorConfig c;
  c.self = ProcessId{0};
  c.n = n;
  c.f = f;
  return c;
}

QueryMessage query_with_entries(std::uint32_t n, std::size_t entries,
                                std::uint64_t seed) {
  Xoshiro256 rng(seed);
  QueryMessage q;
  q.seq = 1;
  for (std::size_t i = 0; i < entries; ++i) {
    const TaggedEntry e{
        ProcessId{static_cast<std::uint32_t>(1 + rng.next_below(n - 1))},
        rng.next_below(1000)};
    if (rng.bernoulli(0.5)) {
      q.push_suspected(e);
    } else {
      q.push_mistake(e);
    }
  }
  return q;
}

void BM_OnQueryMerge(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto entries = static_cast<std::size_t>(state.range(1));
  DetectorCore d(cfg(n, n / 4));
  const auto q = query_with_entries(n, entries, 42);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    auto copy = q;
    copy.seq = ++seq;
    benchmark::DoNotOptimize(d.on_query(ProcessId{1}, copy));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OnQueryMerge)
    ->Args({16, 0})
    ->Args({16, 8})
    ->Args({64, 16})
    ->Args({256, 64})
    ->Args({1024, 256});

void BM_FullRound(benchmark::State& state) {
  // One complete query round at the issuer: start, n - f responses, finish.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  DetectorCore d(cfg(n, n / 4));
  for (auto _ : state) {
    const auto q = d.start_query();
    benchmark::DoNotOptimize(q);
    for (std::uint32_t i = 1; i < d.config().quorum(); ++i) {
      d.on_response(ProcessId{i}, ResponseMessage{q.seq});
    }
    d.finish_round();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FullRound)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_StartQuerySnapshot(benchmark::State& state) {
  // Cost of a round whose full query lists a loaded table (one walk of the
  // n per-id entries).
  const auto n = static_cast<std::uint32_t>(state.range(0));
  DetectorCore d(cfg(n, 1));
  // Load ~n/2 suspicions via a merge.
  (void)d.on_query(ProcessId{1}, query_with_entries(n, n / 2, 7));
  for (auto _ : state) {
    auto q = d.start_query();
    benchmark::DoNotOptimize(q);
    for (std::uint32_t i = 1; i < d.config().quorum(); ++i) {
      d.on_response(ProcessId{i}, ResponseMessage{q.seq});
    }
    d.finish_round();
  }
}
BENCHMARK(BM_StartQuerySnapshot)->Arg(64)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
