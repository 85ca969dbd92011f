// Micro-benchmarks of the wire codec: per-datagram serialization cost on the
// real-transport path, and the sizing pass the simulator's size hook runs on
// every send.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "transport/codec.h"

using namespace mmrfd;
using namespace mmrfd::transport;

namespace {

/// Ids drawn from 0-99,999 in any order and full 64-bit tags: close to the
/// format's worst case (3-5 byte gaps, 10-byte tags).
core::QueryMessage random_query(std::size_t entries) {
  Xoshiro256 rng(9);
  core::QueryMessage q;
  q.seq = 123456789;
  for (std::size_t i = 0; i < entries; ++i) {
    const TaggedEntry e{
        ProcessId{static_cast<std::uint32_t>(rng.next_below(100000))},
        rng.next()};
    if (i % 2 == 0) {
      q.push_suspected(e);
    } else {
      q.push_mistake(e);
    }
  }
  return q;
}

/// Shaped like the cores' queries: sorted ids below n = 4 * entries in
/// each section and round-counter tags below 2^7 (1-byte gaps and tags).
core::QueryMessage protocol_query(std::size_t entries) {
  Xoshiro256 rng(9);
  core::QueryMessage q;
  q.seq = 4321;
  q.epoch = 900;
  const std::size_t suspected = entries / 2;
  std::uint32_t id = 0;
  for (std::size_t i = 0; i < entries; ++i) {
    if (i == suspected) id = 0;
    id += 1 + static_cast<std::uint32_t>(rng.next_below(7));
    q.entries.push_back({ProcessId{id}, rng.next_below(128)});
  }
  q.suspected_count = static_cast<std::uint32_t>(suspected);
  return q;
}

core::QueryMessage query_with(const benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  return state.range(1) == 0 ? random_query(entries)
                             : protocol_query(entries);
}

// Args: {entries, shape}; shape 0 = random ids and tags, 1 = protocol-shaped.
const std::vector<std::vector<std::int64_t>> kShapes = {{0, 16, 128, 1024},
                                                        {0, 1}};

void BM_EncodeQuery(benchmark::State& state) {
  const auto q = query_with(state);
  for (auto _ : state) {
    auto bytes = encode_envelope(ProcessId{1}, q);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire_size(q)));
}
BENCHMARK(BM_EncodeQuery)->ArgsProduct(kShapes);

void BM_DecodeQuery(benchmark::State& state) {
  const auto q = query_with(state);
  const auto bytes = encode_envelope(ProcessId{1}, q);
  for (auto _ : state) {
    auto out = decode_envelope(bytes);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_DecodeQuery)->ArgsProduct(kShapes);

void BM_WireSizeQuery(benchmark::State& state) {
  const auto q = query_with(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(&q);
    auto size = wire_size(q);
    benchmark::DoNotOptimize(size);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(q.entries.size()));
}
BENCHMARK(BM_WireSizeQuery)->ArgsProduct(kShapes);

void BM_EncodeResponse(benchmark::State& state) {
  const core::ResponseMessage r{42};
  for (auto _ : state) {
    auto bytes = encode_envelope(ProcessId{1}, r);
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_EncodeResponse);

}  // namespace

BENCHMARK_MAIN();
