// FaultyTransport — the adversarial-channel decorator for real transports.
//
// These tests pin the decorator's contract: byte-exact passthrough with all
// knobs off, deterministic fault schedules per seed, duplicate/drop
// accounting, the one-slot holdback reorder (delivery still lossless), and
// corruption/truncation that always emits a *different* or *shorter*
// datagram — never a crash, never a stealth drop at shutdown — and never
// one the receiver takes for another peer's. The last case runs the whole
// detector stack over links that drop a quarter of all datagrams.
#include "transport/faulty_transport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics_registry.h"
#include "transport/codec.h"
#include "transport/inmemory_transport.h"
#include "transport/realtime_detector.h"

namespace mmrfd::transport {
namespace {

using namespace std::chrono_literals;

template <typename Cond>
bool eventually(Cond cond, std::chrono::milliseconds budget = 10000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return cond();
}

/// Recorder of everything the far endpoint received; fills on the thread
/// that polls that endpoint.
class Sink {
 public:
  void attach(DatagramTransport& t) {
    t.set_handler([this](ProcessId from, std::span<const std::uint8_t> d) {
      senders_.push_back(from);
      received_.emplace_back(d.begin(), d.end());
    });
  }
  [[nodiscard]] const std::vector<std::vector<std::uint8_t>>& received()
      const {
    return received_;
  }
  /// The sender the transport named for each received datagram.
  [[nodiscard]] const std::vector<ProcessId>& senders() const {
    return senders_;
  }
  [[nodiscard]] std::size_t count() const { return received_.size(); }

 private:
  std::vector<std::vector<std::uint8_t>> received_;
  std::vector<ProcessId> senders_;
};

/// The faulty side of these tests only sends, but InMemoryHub asserts (in
/// debug builds) that every started endpoint has a receive handler.
void start_send_only(DatagramTransport& t) {
  t.set_handler([](ProcessId, std::span<const std::uint8_t>) {});
  t.start();
}

std::vector<std::uint8_t> payload(std::uint32_t i) {
  return {static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8),
          static_cast<std::uint8_t>(i >> 16),
          static_cast<std::uint8_t>(i >> 24), 0xAB, 0xCD};
}

TEST(FaultyTransport, AllKnobsOffIsByteExactPassthrough) {
  InMemoryHub hub(2);
  obs::MetricsRegistry metrics;
  FaultConfig cfg;
  cfg.registry = &metrics;
  FaultyTransport faulty(hub.endpoint(ProcessId{0}), cfg);
  Sink sink;
  sink.attach(hub.endpoint(ProcessId{1}));
  start_send_only(faulty);
  hub.endpoint(ProcessId{1}).start();
  for (std::uint32_t i = 0; i < 50; ++i) {
    faulty.send(ProcessId{1}, payload(i));
  }
  hub.endpoint(ProcessId{1}).poll(Duration::zero());
  ASSERT_EQ(sink.count(), 50u);
  const auto& got = sink.received();
  for (std::uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(got[i], payload(i)) << i;
    EXPECT_EQ(sink.senders()[i], ProcessId{0}) << i;
  }
  const obs::RegistrySnapshot s = metrics.snapshot();
  EXPECT_EQ(s.counter_value("fault.sent"), 50u);
  for (const char* fault : {"fault.dropped", "fault.duplicated",
                            "fault.reordered", "fault.corrupted",
                            "fault.truncated"}) {
    EXPECT_EQ(s.counter_value(fault), 0u) << fault;
  }
  faulty.stop();
}

TEST(FaultyTransport, FaultScheduleIsDeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    InMemoryHub hub(2);
    FaultConfig cfg;
    cfg.drop_rate = 0.2;
    cfg.duplicate_rate = 0.2;
    cfg.reorder_rate = 0.2;
    cfg.corrupt_rate = 0.2;
    cfg.truncate_rate = 0.2;
    cfg.seed = seed;
    obs::MetricsRegistry metrics;
    cfg.registry = &metrics;
    FaultyTransport faulty(hub.endpoint(ProcessId{0}), cfg);
    start_send_only(faulty);
    for (std::uint32_t i = 0; i < 500; ++i) {
      faulty.send(ProcessId{1}, payload(i));
    }
    const obs::RegistrySnapshot s = metrics.snapshot();
    faulty.stop();
    return s;
  };
  const auto a = run(99);
  const auto b = run(99);
  const auto c = run(100);
  // Every fault.* counter agrees for one seed...
  EXPECT_EQ(a, b);
  // ...and a different seed gives a different schedule (all five fault
  // counters agreeing across seeds on 500 draws would mean the seed is
  // ignored).
  EXPECT_NE(a, c);
}

TEST(FaultyTransport, ReorderIsLosslessAndActuallyReorders) {
  InMemoryHub hub(2);
  FaultConfig cfg;
  cfg.reorder_rate = 0.5;
  cfg.seed = 7;
  obs::MetricsRegistry metrics;
  cfg.registry = &metrics;
  FaultyTransport faulty(hub.endpoint(ProcessId{0}), cfg);
  Sink sink;
  sink.attach(hub.endpoint(ProcessId{1}));
  start_send_only(faulty);
  hub.endpoint(ProcessId{1}).start();
  constexpr std::uint32_t kSends = 400;
  for (std::uint32_t i = 0; i < kSends; ++i) {
    faulty.send(ProcessId{1}, payload(i));
  }
  faulty.stop();  // flushes the holdback slot — nothing may be lost
  hub.endpoint(ProcessId{1}).poll(Duration::zero());
  ASSERT_EQ(sink.count(), kSends);
  EXPECT_GT(metrics.counter("fault.reordered").value(), 50u);

  std::vector<std::uint32_t> order;
  for (const auto& d : sink.received()) {
    ASSERT_EQ(d.size(), 6u);
    order.push_back(static_cast<std::uint32_t>(d[0]) |
                    (static_cast<std::uint32_t>(d[1]) << 8) |
                    (static_cast<std::uint32_t>(d[2]) << 16) |
                    (static_cast<std::uint32_t>(d[3]) << 24));
  }
  // Lossless: a permutation of everything sent.
  auto sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint32_t i = 0; i < kSends; ++i) EXPECT_EQ(sorted[i], i);
  // Out of order: at least one adjacent inversion survived.
  std::size_t inversions = 0;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] < order[i - 1]) ++inversions;
  }
  EXPECT_GT(inversions, 0u);
  // Bounded: the one-slot holdback displaces a datagram by at most one
  // position relative to the sends that overtook it... which means each id
  // lands within 2 of its slot.
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_LE(order[i] > i ? order[i] - i : i - order[i], 2u) << i;
  }
}

TEST(FaultyTransport, DuplicatesAreDeliveredTwice) {
  InMemoryHub hub(2);
  FaultConfig cfg;
  cfg.duplicate_rate = 1.0;
  obs::MetricsRegistry metrics;
  cfg.registry = &metrics;
  FaultyTransport faulty(hub.endpoint(ProcessId{0}), cfg);
  Sink sink;
  sink.attach(hub.endpoint(ProcessId{1}));
  start_send_only(faulty);
  hub.endpoint(ProcessId{1}).start();
  for (std::uint32_t i = 0; i < 20; ++i) {
    faulty.send(ProcessId{1}, payload(i));
  }
  hub.endpoint(ProcessId{1}).poll(Duration::zero());
  ASSERT_EQ(sink.count(), 40u);
  EXPECT_EQ(metrics.counter("fault.duplicated").value(), 20u);
  faulty.stop();
}

TEST(FaultyTransport, TruncationEmitsStrictPrefixes) {
  InMemoryHub hub(2);
  FaultConfig cfg;
  cfg.truncate_rate = 1.0;
  cfg.seed = 3;
  obs::MetricsRegistry metrics;
  cfg.registry = &metrics;
  FaultyTransport faulty(hub.endpoint(ProcessId{0}), cfg);
  Sink sink;
  sink.attach(hub.endpoint(ProcessId{1}));
  start_send_only(faulty);
  hub.endpoint(ProcessId{1}).start();
  constexpr std::uint32_t kSends = 200;
  for (std::uint32_t i = 0; i < kSends; ++i) {
    faulty.send(ProcessId{1}, payload(i));
  }
  EXPECT_EQ(metrics.counter("fault.truncated").value(), kSends);
  // Every delivery is a strict prefix of the 6-byte payload; empty results
  // are swallowed, so fewer than kSends arrive.
  faulty.stop();
  hub.endpoint(ProcessId{1}).poll(Duration::zero());
  ASSERT_GE(sink.count(), kSends / 2);
  for (const auto& d : sink.received()) {
    EXPECT_LT(d.size(), 6u);
    EXPECT_FALSE(d.empty());
  }
}

TEST(FaultyTransport, CorruptionChangesBytesButNeverLength) {
  InMemoryHub hub(2);
  FaultConfig cfg;
  cfg.corrupt_rate = 1.0;
  cfg.seed = 5;
  obs::MetricsRegistry metrics;
  cfg.registry = &metrics;
  FaultyTransport faulty(hub.endpoint(ProcessId{0}), cfg);
  Sink sink;
  sink.attach(hub.endpoint(ProcessId{1}));
  start_send_only(faulty);
  hub.endpoint(ProcessId{1}).start();
  constexpr std::uint32_t kSends = 200;
  for (std::uint32_t i = 0; i < kSends; ++i) {
    faulty.send(ProcessId{1}, payload(i));
  }
  hub.endpoint(ProcessId{1}).poll(Duration::zero());
  ASSERT_EQ(sink.count(), kSends);
  EXPECT_EQ(metrics.counter("fault.corrupted").value(), kSends);
  std::size_t changed = 0;
  const auto& got = sink.received();
  for (std::uint32_t i = 0; i < kSends; ++i) {
    ASSERT_EQ(got[i].size(), 6u);
    if (got[i] != payload(i)) ++changed;
  }
  // An even number of flips on the same byte can cancel out — rare, not
  // impossible; the overwhelming majority must differ.
  EXPECT_GT(changed, kSends * 9 / 10);
  faulty.stop();
}

TEST(FaultyTransport, CorruptionNeverDeliversADatagramAsAnotherPeers) {
  // Corruption flips bytes, never the sender: the receiving transport names
  // it (here the sending endpoint, on UDP the source port), so each of
  // p1's damaged datagrams fails to decode or decodes as p1's, whatever ids
  // its bytes mention.
  constexpr std::uint32_t kN = 4;
  InMemoryHub hub(kN);
  obs::MetricsRegistry metrics;
  FaultConfig cfg;
  cfg.corrupt_rate = 1.0;
  cfg.seed = 11;
  cfg.registry = &metrics;
  FaultyTransport faulty(hub.endpoint(ProcessId{1}), cfg);
  start_send_only(faulty);
  DatagramTransport& rx = hub.endpoint(ProcessId{0});
  std::vector<ProcessId> senders;
  std::uint64_t malformed = 0;
  rx.set_handler([&](ProcessId from, std::span<const std::uint8_t> d) {
    if (decode_message(d).has_value()) {
      senders.push_back(from);
    } else {
      ++malformed;
    }
  });
  rx.start();
  constexpr std::uint32_t kSends = 2000;
  for (std::uint32_t i = 1; i <= kSends; ++i) {
    WireMessage m;
    if (i % 2 == 0) {
      core::QueryMessage q;
      q.seq = i;
      q.epoch = i;
      q.push_suspected({ProcessId{i % kN}, i});
      q.push_mistake({ProcessId{(i + 1) % kN}, i});
      m = q;
    } else {
      core::ResponseMessage r;
      r.seq = i;
      r.ack_epoch = i;
      m = r;
    }
    faulty.send(ProcessId{0}, encode_message(m));
  }
  rx.poll(Duration::zero());
  EXPECT_EQ(metrics.counter("fault.corrupted").value(), kSends);
  // Flips that land in value bytes still decode; the rest do not.
  EXPECT_GT(senders.size(), 0u);
  EXPECT_GT(malformed, 0u);
  EXPECT_EQ(senders.size() + malformed, kSends);
  EXPECT_EQ(std::count(senders.begin(), senders.end(), ProcessId{1}),
            static_cast<std::ptrdiff_t>(senders.size()));
  faulty.stop();
}

TEST(FaultyTransport, FullDetectorStackOverLossyLinks) {
  // detector (and its codec) -> 25% drop on every node's egress ->
  // in-memory links. The round driver's waves are the only retransmission:
  // resend waves while a round is short of quorum keep the rounds turning,
  // the late wave in the grace saves most silent live peers from
  // suspicion, self-defence repairs the rest, and a stopped node is
  // detected.
  constexpr std::uint32_t kN = 3;
  InMemoryHub hub(kN);
  std::vector<std::unique_ptr<FaultyTransport>> faulty;
  std::vector<std::unique_ptr<RealTimeDetector>> nodes;
  for (std::uint32_t i = 0; i < kN; ++i) {
    FaultConfig fcfg;
    fcfg.drop_rate = 0.25;
    fcfg.seed = 100 + i;
    faulty.push_back(
        std::make_unique<FaultyTransport>(hub.endpoint(ProcessId{i}), fcfg));
  }
  for (std::uint32_t i = 0; i < kN; ++i) {
    RealTimeConfig cfg;
    cfg.detector.self = ProcessId{i};
    cfg.detector.n = kN;
    cfg.detector.f = 1;
    cfg.pacing = from_millis(20);
    cfg.resend = from_millis(10);
    nodes.push_back(std::make_unique<RealTimeDetector>(*faulty[i], cfg));
  }
  for (auto& n : nodes) n->start();
  // Generous budgets: this runs under parallel test load and sanitizers.
  EXPECT_TRUE(eventually(
      [&] {
        for (auto& n : nodes) {
          if (n->rounds_completed() < 5) return false;
          // Transient suspicions are legitimate while a lost exchange
          // waits for its repair; assert the eventually-clean state.
          if (!n->suspected().empty()) return false;
        }
        return true;
      },
      30000ms));
  nodes[2]->stop();
  EXPECT_TRUE(eventually(
      [&] {
        return nodes[0]->is_suspected(ProcessId{2}) &&
               nodes[1]->is_suspected(ProcessId{2});
      },
      30000ms));
  nodes[0]->stop();
  nodes[1]->stop();
}

}  // namespace
}  // namespace mmrfd::transport
