// Real-transport integration: the simulator-verified core over threads and
// sockets. These tests use generous wall-clock budgets and liveness-style
// assertions (eventually-suspects / eventually-clean) to stay robust on
// loaded CI machines.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/trace_assembler.h"
#include "transport/inmemory_transport.h"
#include "transport/realtime_detector.h"
#include "transport/typed_transport.h"
#include "transport/udp_transport.h"

namespace mmrfd::transport {
namespace {

using namespace std::chrono_literals;

RealTimeConfig rt_config(std::uint32_t self, std::uint32_t n,
                         std::uint32_t f) {
  RealTimeConfig c;
  c.detector.self = ProcessId{self};
  c.detector.n = n;
  c.detector.f = f;
  c.pacing = from_millis(10);
  return c;
}

/// Polls `cond` for up to `budget`; returns true as soon as it holds.
template <typename Cond>
bool eventually(Cond cond, std::chrono::milliseconds budget = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return cond();
}

/// A cluster of typed endpoints over one in-memory hub.
struct TypedHub {
  InMemoryHub hub;
  std::vector<std::unique_ptr<TypedTransport>> typed;

  explicit TypedHub(std::uint32_t n) : hub(n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      typed.push_back(
          std::make_unique<TypedTransport>(hub.endpoint(ProcessId{i})));
    }
  }
  TypedTransport& at(std::uint32_t i) { return *typed[i]; }
};

TEST(InMemoryTransport, DeliversPointToPoint) {
  TypedHub h(2);
  std::atomic<int> got{0};
  h.at(1).set_handler([&](ProcessId from, const WireMessage& m) {
    EXPECT_EQ(from, ProcessId{0});
    EXPECT_TRUE(std::holds_alternative<core::ResponseMessage>(m));
    ++got;
  });
  h.at(0).set_handler([](ProcessId, const WireMessage&) {});
  h.at(0).start();
  h.at(1).start();
  h.at(0).send(ProcessId{1}, core::ResponseMessage{7});
  EXPECT_TRUE(eventually([&] { return got.load() == 1; }));
}

TEST(InMemoryTransport, BroadcastReachesAllOthers) {
  TypedHub h(4);
  std::atomic<int> got{0};
  for (std::uint32_t i = 0; i < 4; ++i) {
    h.at(i).set_handler([&](ProcessId, const WireMessage&) { ++got; });
    h.at(i).start();
  }
  h.at(2).broadcast(core::ResponseMessage{1});
  EXPECT_TRUE(eventually([&] { return got.load() == 3; }));
}

TEST(TypedTransport, MalformedDatagramsCountedAndDropped) {
  InMemoryHub hub(2);
  obs::MetricsRegistry metrics;
  TypedTransport typed(hub.endpoint(ProcessId{1}), &metrics);
  std::atomic<int> got{0};
  typed.set_handler([&](ProcessId, const WireMessage&) { ++got; });
  typed.start();
  const std::vector<std::uint8_t> junk{1, 2, 3};
  hub.endpoint(ProcessId{0})
      .set_handler([](std::span<const std::uint8_t>) {});
  hub.endpoint(ProcessId{0}).start();
  hub.endpoint(ProcessId{0}).send(ProcessId{1}, junk);
  const obs::Counter& malformed = metrics.counter("codec.malformed");
  EXPECT_TRUE(eventually([&] { return malformed.value() == 1; }));
  EXPECT_EQ(got.load(), 0);
  typed.stop();
}

TEST(RealTimeDetector, InMemoryClusterRunsRoundsAndStaysClean) {
  constexpr std::uint32_t kN = 4;
  TypedHub h(kN);
  std::vector<std::unique_ptr<RealTimeDetector>> nodes;
  for (std::uint32_t i = 0; i < kN; ++i) {
    nodes.push_back(
        std::make_unique<RealTimeDetector>(h.at(i), rt_config(i, kN, 1)));
  }
  for (auto& n : nodes) n->start();
  // "Eventually clean": under machine load a driver thread can be
  // descheduled past the pacing window, causing a *transient* suspicion
  // that the protocol then repairs — assert the stable state, not an
  // instantaneous snapshot.
  EXPECT_TRUE(eventually([&] {
    for (auto& n : nodes) {
      if (n->rounds_completed() < 10) return false;
      if (!n->suspected().empty()) return false;
    }
    return true;
  }));
  for (auto& n : nodes) n->stop();
}

TEST(RealTimeDetector, InMemoryClusterDetectsStoppedNode) {
  constexpr std::uint32_t kN = 4;
  TypedHub h(kN);
  std::vector<std::unique_ptr<RealTimeDetector>> nodes;
  for (std::uint32_t i = 0; i < kN; ++i) {
    nodes.push_back(
        std::make_unique<RealTimeDetector>(h.at(i), rt_config(i, kN, 1)));
  }
  for (auto& n : nodes) n->start();
  ASSERT_TRUE(
      eventually([&] { return nodes[0]->rounds_completed() >= 5; }));
  nodes[3]->stop();  // "crash"
  EXPECT_TRUE(eventually([&] {
    for (std::uint32_t i = 0; i < 3; ++i) {
      if (!nodes[i]->is_suspected(ProcessId{3})) return false;
    }
    return true;
  }));
  // The crashed node must never be "repaired", and the survivors settle
  // back to suspecting only it.
  std::this_thread::sleep_for(100ms);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(nodes[i]->is_suspected(ProcessId{3}));
  }
  EXPECT_TRUE(eventually([&] {
    for (std::uint32_t i = 0; i < 3; ++i) {
      if (nodes[i]->suspected() != std::vector<ProcessId>{ProcessId{3}}) {
        return false;
      }
    }
    return true;
  }));
  for (std::uint32_t i = 0; i < 3; ++i) nodes[i]->stop();
}

TEST(RealTimeDetector, InMemoryClusterTraceHasNoCausalViolations) {
  // Every node stamps its flight ring from the one host clock, so the true
  // skew is zero: assembled without skew estimation, a matched rx stamped
  // before its tx can only mean a tx stamp taken after its send(). Eight
  // nodes give every query fan-out seven sends for a fast receiver thread
  // to overtake.
  constexpr std::uint32_t kN = 8;
  TypedHub h(kN);
  std::vector<std::unique_ptr<obs::FlightRecorder>> rings;
  std::vector<std::unique_ptr<RealTimeDetector>> nodes;
  for (std::uint32_t i = 0; i < kN; ++i) {
    rings.push_back(std::make_unique<obs::FlightRecorder>(
        std::size_t{1} << 16, obs::wall_trace_clock()));
    RealTimeConfig c = rt_config(i, kN, 2);
    c.recorder = rings.back().get();
    nodes.push_back(std::make_unique<RealTimeDetector>(h.at(i), c));
  }
  for (auto& n : nodes) n->start();
  EXPECT_TRUE(eventually([&] {
    return std::all_of(nodes.begin(), nodes.end(), [](const auto& n) {
      return n->rounds_completed() >= 50;
    });
  }));
  for (auto& n : nodes) n->stop();

  obs::AssemblerOptions options;
  options.n = kN;
  options.estimate_skew = false;
  obs::TraceAssembler assembler(options);
  for (std::uint32_t i = 0; i < kN; ++i) {
    assembler.add_node({i, 0, rings[i]->snapshot()});
  }
  const obs::AssembledTrace trace = assembler.assemble();
  EXPECT_GT(trace.matched_pairs, 0u);
  EXPECT_EQ(trace.causal_violations, 0u)
      << "of " << trace.matched_pairs << " matched exchanges";
}

TEST(UdpTransport, LoopbackRoundTrip) {
  UdpTransport t0({ProcessId{0}, 2, 39200});
  UdpTransport t1({ProcessId{1}, 2, 39200});
  TypedTransport typed0(t0);
  TypedTransport typed1(t1);
  std::atomic<int> got{0};
  typed0.set_handler([](ProcessId, const WireMessage&) {});
  typed1.set_handler([&](ProcessId from, const WireMessage& m) {
    EXPECT_EQ(from, ProcessId{0});
    if (std::holds_alternative<core::QueryMessage>(m)) ++got;
  });
  try {
    typed0.start();
    typed1.start();
  } catch (const std::system_error& e) {
    GTEST_SKIP() << "UDP loopback unavailable: " << e.what();
  }
  core::QueryMessage q;
  q.seq = 3;
  q.push_suspected({ProcessId{1}, 9});
  typed0.send(ProcessId{1}, q);
  EXPECT_TRUE(eventually([&] { return got.load() == 1; }));
  typed0.stop();
  typed1.stop();
}

TEST(UdpTransport, FullDetectorClusterOverSockets) {
  constexpr std::uint32_t kN = 3;
  std::vector<std::unique_ptr<UdpTransport>> udp;
  std::vector<std::unique_ptr<TypedTransport>> typed;
  std::vector<std::unique_ptr<RealTimeDetector>> nodes;
  for (std::uint32_t i = 0; i < kN; ++i) {
    udp.push_back(
        std::make_unique<UdpTransport>(UdpConfig{ProcessId{i}, kN, 39300}));
    typed.push_back(std::make_unique<TypedTransport>(*udp[i]));
  }
  for (std::uint32_t i = 0; i < kN; ++i) {
    nodes.push_back(
        std::make_unique<RealTimeDetector>(*typed[i], rt_config(i, kN, 1)));
  }
  try {
    for (auto& n : nodes) n->start();
  } catch (const std::system_error& e) {
    GTEST_SKIP() << "UDP loopback unavailable: " << e.what();
  }
  EXPECT_TRUE(eventually(
      [&] {
        for (auto& n : nodes) {
          if (n->rounds_completed() < 5) return false;
          if (!n->suspected().empty()) return false;
        }
        return true;
      },
      15000ms));
  nodes[2]->stop();
  EXPECT_TRUE(eventually(
      [&] {
        return nodes[0]->is_suspected(ProcessId{2}) &&
               nodes[1]->is_suspected(ProcessId{2});
      },
      15000ms));
  nodes[0]->stop();
  nodes[1]->stop();
}

TEST(RealTimeDetector, RejectsNonPositiveResend) {
  // A zero interval would fire full-encoding resend waves back to back
  // whenever a round is short of quorum; there is no "off" either, since
  // without waves one lost datagram wedges a live round.
  TypedHub h(2);
  for (const Duration resend : {Duration::zero(), from_millis(-1)}) {
    RealTimeConfig c = rt_config(0, 2, 1);
    c.resend = resend;
    EXPECT_THROW(RealTimeDetector(h.at(0), c), std::invalid_argument);
  }
}

TEST(RealTimeDetector, StopIsIdempotentAndRestartable) {
  TypedHub h(2);
  RealTimeDetector a(h.at(0), rt_config(0, 2, 1));
  RealTimeDetector b(h.at(1), rt_config(1, 2, 1));
  a.start();
  b.start();
  EXPECT_TRUE(eventually([&] { return a.rounds_completed() >= 2; }));
  a.stop();
  a.stop();  // idempotent
  b.stop();
}

}  // namespace
}  // namespace mmrfd::transport
