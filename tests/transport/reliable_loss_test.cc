// ReliableDatagram under deterministic loss, driving the delta encoding's
// need_full resync: the exact state-loss scenario a live-cluster node
// restart produces, reduced to a two-node deterministic harness.
//
//   * loss: every 3rd datagram hub-wide is dropped; the reliability layer
//     must still deliver every query/response exactly once;
//   * resync: node b is "restarted" (fresh DetectorCore). The next delta
//     query from a names a base epoch the new b never acknowledged — b must
//     answer need_full, a must drop its watermark, send one full encoding,
//     and return to the delta path.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#include "core/detector_core.h"
#include "obs/metrics_registry.h"
#include "transport/inmemory_transport.h"
#include "transport/reliable.h"
#include "transport/typed_transport.h"

namespace mmrfd::transport {
namespace {

using namespace std::chrono_literals;

template <typename Cond>
bool eventually(Cond cond, std::chrono::milliseconds budget = 10000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return cond();
}

TEST(ReliableLoss, NeedFullResyncAfterPeerRestartUnderLoss) {
  constexpr ProcessId kA{0};
  constexpr ProcessId kB{1};
  InMemoryHub hub(2);
  hub.set_loss_every(3);
  obs::MetricsRegistry metrics_a;
  obs::MetricsRegistry metrics_b;
  ReliableConfig rcfg;
  rcfg.retransmit_interval = from_millis(5);
  rcfg.registry = &metrics_a;
  ReliableDatagram ra(hub.endpoint(kA), rcfg);
  rcfg.registry = &metrics_b;
  ReliableDatagram rb(hub.endpoint(kB), rcfg);
  TypedTransport ta(ra);
  TypedTransport tb(rb);

  core::DetectorConfig cfg_a;
  cfg_a.self = kA;
  cfg_a.n = 2;
  cfg_a.f = 1;  // quorum 1: a's own response terminates each query
  core::DetectorConfig cfg_b = cfg_a;
  cfg_b.self = kB;

  // One mutex guards both cores and the counters; handlers run on the hub's
  // dispatch threads.
  std::mutex mu;
  core::DetectorCore a(cfg_a);
  auto b = std::make_unique<core::DetectorCore>(cfg_b);
  int need_full_responses = 0;

  ta.set_handler([&](ProcessId from, const WireMessage& msg) {
    if (const auto* r = std::get_if<core::ResponseMessage>(&msg)) {
      std::lock_guard lock(mu);
      a.on_response(from, *r);
      if (r->need_full) ++need_full_responses;
    }
  });
  tb.set_handler([&](ProcessId from, const WireMessage& msg) {
    if (const auto* q = std::get_if<core::QueryMessage>(&msg)) {
      core::ResponseMessage response;
      {
        std::lock_guard lock(mu);
        response = b->on_query(from, *q);
      }
      tb.send(from, WireMessage{response});
    }
  });
  ta.start();
  tb.start();

  // Runs query rounds at a (sending only to b) until `pred` holds, waiting
  // within each round for b's response (or the predicate) before closing it.
  const auto drive_rounds_until = [&](auto pred, int max_rounds) {
    for (int round = 0; round < max_rounds; ++round) {
      core::QueryMessage q;
      {
        std::lock_guard lock(mu);
        a.begin_query();
        q = a.query_for(kB);
      }
      ta.send(kB, WireMessage{q});
      eventually(
          [&] {
            std::lock_guard lock(mu);
            return a.rec_from().size() >= 2 || pred();
          },
          2000ms);
      std::lock_guard lock(mu);
      a.finish_round();
      if (pred()) return true;
    }
    std::lock_guard lock(mu);
    return pred();
  };

  // Round 1, closed with the query deliberately never sent: b cannot have
  // responded, so it becomes suspected — the state churn that moves a's
  // epoch off 0 (an epoch-0 sender has nothing to delta against and would
  // stay on the full encoding forever).
  {
    std::lock_guard lock(mu);
    a.begin_query();
    a.finish_round();
    EXPECT_TRUE(a.is_suspected(kB));
    EXPECT_GT(a.state_epoch(), 0u);
  }

  // The delta path engages once b has acknowledged a post-churn epoch.
  ASSERT_TRUE(drive_rounds_until(
      [&] { return a.acked_epoch(kB) > 0 && !a.full_query_needed(kB); }, 50));

  // "Restart" b: fresh core, all watermark state lost — exactly what a
  // SIGKILL + re-exec of a live node does.
  {
    std::lock_guard lock(mu);
    b = std::make_unique<core::DetectorCore>(cfg_b);
  }

  // a still believes b acked a positive epoch, so its next queries are
  // deltas on a base the new b never saw: b must answer need_full, and the
  // ack must drop a's watermark onto the full fallback.
  ASSERT_TRUE(drive_rounds_until([&] { return need_full_responses > 0; }, 50));
  {
    std::lock_guard lock(mu);
    EXPECT_EQ(a.acked_epoch(kB), 0u);
    EXPECT_TRUE(a.full_query_needed(kB));
  }

  // One full encoding resynchronizes the peer and re-arms the delta path.
  ASSERT_TRUE(drive_rounds_until(
      [&] { return a.acked_epoch(kB) > 0 && !a.full_query_needed(kB); }, 50));

  // The loss injection was real and the reliability layer worked for it.
  EXPECT_GT(hub.dropped(), 0u);
  EXPECT_GT(metrics_a.counter("rel.retransmissions").value() +
                metrics_b.counter("rel.retransmissions").value(),
            0u);
  EXPECT_EQ(metrics_a.counter("rel.gave_up").value(), 0u);

  ta.stop();
  tb.stop();
}

}  // namespace
}  // namespace mmrfd::transport
