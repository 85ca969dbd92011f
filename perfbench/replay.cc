// Per-call costs of the codec and DetectorCore, from a workload's own
// captured messages.
//
// Codec: every captured message is encoded with transport::encode and
// decoded back with decode_query / decode_response, checking the round
// trip. Core: one benchmark-owned DetectorCore (self = 0, the workload's n,
// f and encoding) runs rounds whose query fan-out (query_for), responses
// (on_response from every non-silent peer, in a seeded order) and
// finish_round are timed, while the captured queries are fed through
// on_query between rounds so the core's tagged sets grow and churn the way
// a workload node's do.
#include <algorithm>
#include <chrono>
#include <variant>

#include "bench.h"
#include "common/rng.h"
#include "core/detector_core.h"
#include "transport/codec.h"

namespace perfbench {

namespace {

using mmrfd::core::QueryMessage;
using mmrfd::core::ResponseMessage;
using mmrfd::runtime::MmrMessage;

// Repeats a pass until it has run for at least this long, so per-call
// figures from small captures are not single-pass noise.
constexpr double kMinPassSeconds = 0.25;

void replay_codec(const std::vector<MmrMessage>& msgs, Tracer& tracer,
                  ReplayCosts& out) {
  std::vector<std::vector<std::uint8_t>> wire(msgs.size());
  const auto t0 = std::chrono::steady_clock::now();
  do {
    auto span = tracer.span("codec.encode", msgs.size());
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      mmrfd::transport::Encoder e;
      std::visit([&](const auto& m) { mmrfd::transport::encode(e, m); },
                 msgs[i]);
      wire[i] = e.take();
    }
  } while (seconds_since(t0) < kMinPassSeconds);

  const auto t1 = std::chrono::steady_clock::now();
  bool ok = true;
  do {
    auto span = tracer.span("codec.decode", msgs.size());
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      mmrfd::transport::Decoder d(wire[i]);
      if (std::holds_alternative<QueryMessage>(msgs[i])) {
        const auto q = mmrfd::transport::decode_query(d);
        ok = ok && q && *q == std::get<QueryMessage>(msgs[i]);
      } else {
        const auto r = mmrfd::transport::decode_response(d);
        ok = ok && r && *r == std::get<ResponseMessage>(msgs[i]);
      }
    }
  } while (seconds_since(t1) < kMinPassSeconds);
  out.roundtrip_ok = ok;
  out.encode_ns = tracer.ns_per_call("codec.encode");
  out.decode_ns = tracer.ns_per_call("codec.decode");
}

void replay_core(const std::vector<MmrMessage>& msgs, const ReplayShape& shape,
                 Tracer& tracer, ReplayCosts& out) {
  std::vector<const QueryMessage*> queries;
  for (const MmrMessage& m : msgs) {
    if (const auto* q = std::get_if<QueryMessage>(&m)) queries.push_back(q);
  }
  mmrfd::core::DetectorConfig cfg;
  cfg.self = ProcessId{0};
  cfg.n = shape.n;
  cfg.f = shape.f;
  cfg.delta_queries = shape.delta;
  mmrfd::core::DetectorCore core(cfg);

  std::vector<bool> silent(shape.n, false);
  for (ProcessId id : shape.silent) {
    if (id.value < shape.n && id.value != 0) silent[id.value] = true;
  }
  std::vector<ProcessId> responders;
  for (std::uint32_t i = 1; i < shape.n; ++i) {
    if (!silent[i]) responders.push_back(ProcessId{i});
  }
  mmrfd::Xoshiro256 rng(mmrfd::derive_seed(shape.seed, "perfbench.replay"));

  // Rounds enough for ~200k fan-out calls, with the captured queries spread
  // evenly between them.
  const std::size_t rounds =
      std::max<std::size_t>(64, 200000 / std::max<std::uint32_t>(1, shape.n));
  std::size_t next_query = 0;
  std::uint32_t sender = 1;
  std::vector<QueryMessage> sent(shape.n);
  for (std::size_t r = 0; r < rounds; ++r) {
    core.begin_query();
    std::size_t fanned = 0;
    for (std::uint32_t p = 1; p < shape.n; ++p) {
      if (core.should_query(ProcessId{p})) ++fanned;
    }
    {
      auto span = tracer.span("core.query_for", fanned);
      for (std::uint32_t p = 1; p < shape.n; ++p) {
        if (core.should_query(ProcessId{p})) {
          sent[p] = core.query_for(ProcessId{p});
        }
      }
    }
    for (std::size_t i = responders.size(); i > 1; --i) {
      std::swap(responders[i - 1], responders[rng.next_below(i)]);
    }
    {
      auto span = tracer.span("core.on_response", responders.size());
      for (ProcessId p : responders) {
        (void)core.on_response(
            p, ResponseMessage{core.query_seq(), sent[p.value].epoch, false, 0});
      }
    }
    const std::size_t share =
        (queries.size() - next_query) / std::max<std::size_t>(1, rounds - r);
    if (share > 0) {
      auto span = tracer.span("core.on_query", share);
      for (std::size_t i = 0; i < share; ++i) {
        (void)core.on_query(ProcessId{sender}, *queries[next_query++]);
        sender = sender + 1 < shape.n ? sender + 1 : 1;
      }
    }
    {
      auto span = tracer.span("core.finish_round");
      core.finish_round();
    }
  }
  out.query_for_ns = tracer.ns_per_call("core.query_for");
  out.on_query_ns = tracer.ns_per_call("core.on_query");
  out.on_response_ns = tracer.ns_per_call("core.on_response");
  out.finish_round_ns = tracer.ns_per_call("core.finish_round");
}

}  // namespace

ReplayCosts replay(const std::vector<MmrMessage>& msgs,
                   const ReplayShape& shape, Tracer& tracer) {
  ReplayCosts out;
  out.messages = msgs.size();
  if (msgs.empty() || !tracer.enabled()) return out;
  auto span = tracer.span("replay");
  replay_codec(msgs, tracer, out);
  replay_core(msgs, shape, tracer, out);
  return out;
}

}  // namespace perfbench
