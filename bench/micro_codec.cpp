// Micro-benchmarks of the wire codec: per-datagram serialization cost on the
// real-transport path, the sizing pass the simulator's size hook runs on
// every send, and a live node's report snapshot and flight-ring record.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "live/report.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
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
// 0 entries is the query that omits its counts (has-entries bit clear).
const std::vector<std::vector<std::int64_t>> kShapes = {{0, 16, 128, 1024},
                                                        {0, 1}};

void BM_EncodeQuery(benchmark::State& state) {
  const auto q = query_with(state);
  for (auto _ : state) {
    auto bytes = encode_message(q);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire_size(q)));
}
BENCHMARK(BM_EncodeQuery)->ArgsProduct(kShapes);

void BM_DecodeQuery(benchmark::State& state) {
  const auto q = query_with(state);
  const auto bytes = encode_message(q);
  for (auto _ : state) {
    auto out = decode_message(bytes);
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

/// A live response: the echoed seq, an ack and the responder's own round.
core::ResponseMessage live_response() {
  core::ResponseMessage r;
  r.seq = 4321;
  r.ack_epoch = 900;
  r.origin_seq = 4320;
  return r;
}

void BM_EncodeResponse(benchmark::State& state) {
  const core::ResponseMessage r = live_response();
  for (auto _ : state) {
    auto bytes = encode_message(r);
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_EncodeResponse);

void BM_DecodeResponse(benchmark::State& state) {
  const auto bytes = encode_message(live_response());
  for (auto _ : state) {
    auto out = decode_message(bytes);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_DecodeResponse);

// One report snapshot as mmrfd-node's main thread takes it every
// --flush-ms: the registry snapshot, the report's build and encode, and one
// ReportWriter::write (a pwrite into an open slot file). Shaped like a node
// of a 16-node cluster after three kills: the live stack's instruments, a
// filled round-RTT histogram, 3 suspects and their history.
void BM_ReportSnapshot(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (const char* name :
       {"codec.malformed", "rt.delta_queries_sent", "rt.full_queries_sent",
        "rt.need_full_received", "rt.need_full_sent", "rt.queries_received",
        "rt.query_bytes_sent", "rt.resend_waves", "rt.response_bytes_sent",
        "rt.responses_received", "rt.responses_sent", "rt.rounds",
        "udp.bytes_received", "udp.bytes_sent", "udp.datagrams_received",
        "udp.datagrams_sent", "udp.recv_errors", "udp.truncated"}) {
    registry.counter(name).add(270 * 15);
  }
  registry.gauge("udp.rcvbuf_bytes").set(425'984);
  obs::Histogram& rtt = registry.histogram("rt.round_rtt_ns");
  Xoshiro256 rng(16);
  for (int i = 0; i < 270; ++i) {
    rtt.observe(300'000 + rng.next_below(900'000));
  }
  std::vector<live::ReportEvent> events;
  for (std::uint32_t victim : {3u, 9u, 14u}) {
    events.push_back({victim * 1'000'000'000ull, victim, 0, 40 + victim});
  }
  events.push_back({12'000'000'000ull, 9, 1, 49});  // one cleared mistake

  const auto take_snapshot = [&](std::uint64_t rounds) {
    live::NodeReport r;
    r.self = 0;
    r.n = 16;
    r.f = 7;
    r.pacing_ns = 100'000'000;
    r.snapshot_ns = rounds * 110'000'000;
    r.rounds = rounds;
    r.metrics = registry.snapshot();
    r.suspected = {3, 14};
    r.events = events;
    return r;
  };

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("mmrfd_micro_report." + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);
  {
    live::ReportWriter writer(dir + "/node0.g0.bin");
    std::uint64_t rounds = 270;
    for (auto _ : state) {
      if (!writer.write(take_snapshot(rounds++))) {
        state.SkipWithError("report write failed");
        break;
      }
    }
  }
  std::filesystem::remove_all(dir);
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(live::encode_report(take_snapshot(270)).size()));
}
BENCHMARK(BM_ReportSnapshot);

/// One flight-ring record() as every live node writes it, traced or not:
/// stamped by the wall clock into mmrfd-node's default 4,096-slot ring.
/// The operands vary like an exchange's (peer, round seq); the ring wraps
/// every 4,096 iterations, as a running node's does.
void BM_FlightRecorderRecord(benchmark::State& state) {
  obs::FlightRecorder recorder(4096, obs::wall_trace_clock());
  std::uint32_t seq = 0;
  for (auto _ : state) {
    recorder.record(obs::TraceKind::kQueryTx, seq % 15, seq / 15);
    benchmark::ClobberMemory();
    ++seq;
  }
  benchmark::DoNotOptimize(recorder.recorded());
}
BENCHMARK(BM_FlightRecorderRecord);

}  // namespace

BENCHMARK_MAIN();
