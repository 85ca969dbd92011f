// Real-transport integration: the simulator-verified core over sockets and
// one protocol thread per node. Transports own no thread, so the transport
// cases poll them on the test thread; the detector cases use generous
// wall-clock budgets and liveness-style assertions (eventually-suspects /
// eventually-clean) to stay robust on loaded CI machines.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <stdexcept>
#include <system_error>
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
  int got = 0;
  h.at(1).set_handler([&](ProcessId from, const WireMessage& m) {
    EXPECT_EQ(from, ProcessId{0});
    EXPECT_TRUE(std::holds_alternative<core::ResponseMessage>(m));
    ++got;
  });
  h.at(0).set_handler([](ProcessId, const WireMessage&) {});
  h.at(0).start();
  h.at(1).start();
  h.at(0).send(ProcessId{1}, core::ResponseMessage{7});
  h.at(1).poll(Duration::zero());
  EXPECT_EQ(got, 1);
}

TEST(InMemoryTransport, BroadcastReachesAllOthers) {
  TypedHub h(4);
  int got = 0;
  for (std::uint32_t i = 0; i < 4; ++i) {
    h.at(i).set_handler([&](ProcessId from, const WireMessage&) {
      EXPECT_EQ(from, ProcessId{2});  // the hub names the sending endpoint
      ++got;
    });
    h.at(i).start();
  }
  h.at(2).broadcast(core::ResponseMessage{1});
  for (std::uint32_t i = 0; i < 4; ++i) h.at(i).poll(Duration::zero());
  EXPECT_EQ(got, 3);
}

TEST(TypedTransport, MalformedDatagramsCountedAndDropped) {
  InMemoryHub hub(2);
  obs::MetricsRegistry metrics;
  TypedTransport typed(hub.endpoint(ProcessId{1}), &metrics);
  int got = 0;
  typed.set_handler([&](ProcessId, const WireMessage&) { ++got; });
  typed.start();
  const std::vector<std::uint8_t> junk{1, 2, 3};
  hub.endpoint(ProcessId{0})
      .set_handler([](ProcessId, std::span<const std::uint8_t>) {});
  hub.endpoint(ProcessId{0}).start();
  hub.endpoint(ProcessId{0}).send(ProcessId{1}, junk);
  typed.poll(Duration::zero());
  EXPECT_EQ(metrics.counter("codec.malformed").value(), 1u);
  EXPECT_EQ(got, 0);
  typed.stop();
}

TEST(UdpTransport, DatagramFromAPortOutsideTheClusterIsCountedMalformed) {
  // Process i sends from base_port + i, and that port is all that names a
  // datagram's sender. Well-formed messages from a socket bound just below
  // the cluster's ports, one just above them, and an unbound (ephemeral
  // port) socket name no member: each is dropped and counted malformed,
  // while the same message from p0 is delivered as p0's.
  constexpr std::uint16_t kBase = 39230;
  obs::MetricsRegistry metrics;
  UdpTransport t0({ProcessId{0}, 2, kBase});
  UdpTransport t1({ProcessId{1}, 2, kBase, 0, &metrics});
  TypedTransport typed0(t0);
  TypedTransport typed1(t1, &metrics);
  std::vector<ProcessId> senders;
  typed0.set_handler([](ProcessId, const WireMessage&) {});
  typed1.set_handler(
      [&](ProcessId from, const WireMessage&) { senders.push_back(from); });
  try {
    typed0.start();
    typed1.start();
  } catch (const std::system_error& e) {
    GTEST_SKIP() << "UDP loopback unavailable: " << e.what();
  }
  const auto bytes = encode_message(core::ResponseMessage{7});
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(kBase + 1);
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  for (const std::uint16_t port : {kBase - 1, kBase + 2, 0}) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    ASSERT_GE(fd, 0);
    if (port != 0) {
      sockaddr_in local = to;
      local.sin_port = htons(port);
      if (::bind(fd, reinterpret_cast<const sockaddr*>(&local),
                 sizeof local) != 0) {
        ::close(fd);
        GTEST_SKIP() << "port " << port << " is in use";
      }
    }
    EXPECT_EQ(::sendto(fd, bytes.data(), bytes.size(), 0,
                       reinterpret_cast<const sockaddr*>(&to), sizeof to),
              static_cast<ssize_t>(bytes.size()));
    ::close(fd);
  }
  typed0.send(ProcessId{1}, core::ResponseMessage{7});
  const obs::Counter& malformed = metrics.counter("codec.malformed");
  EXPECT_TRUE(eventually([&] {
    typed1.poll(from_millis(50));
    return metrics.counter("udp.datagrams_received").value() == 4;
  }));
  EXPECT_EQ(malformed.value(), 3u);
  EXPECT_EQ(senders, std::vector<ProcessId>{ProcessId{0}});
  typed0.stop();
  typed1.stop();
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
  // "Eventually clean": under machine load a protocol thread can be
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
  // Every node stamps its flight ring from the one host clock, so a matched
  // rx stamped before its tx can only mean a tx stamp taken after its
  // send(). Eight nodes give every query fan-out seven sends for a fast
  // peer thread to overtake. Each exchange step leaves exactly one record,
  // so every ring's exchange kinds count what the node's registry counts.
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

  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_LE(rings[i]->recorded(), rings[i]->capacity()) << "node " << i;
    std::map<obs::TraceKind, std::uint64_t> records;
    for (const obs::TraceRecord& r : rings[i]->snapshot()) ++records[r.kind];
    const obs::RegistrySnapshot rt = nodes[i]->metrics().snapshot();
    EXPECT_EQ(records[obs::TraceKind::kQueryTx],
              rt.counter_value("rt.full_queries_sent") +
                  rt.counter_value("rt.delta_queries_sent"))
        << "node " << i;
    EXPECT_EQ(records[obs::TraceKind::kQueryRx],
              rt.counter_value("rt.queries_received"))
        << "node " << i;
    EXPECT_EQ(records[obs::TraceKind::kResponseTx],
              rt.counter_value("rt.responses_sent"))
        << "node " << i;
    EXPECT_EQ(records[obs::TraceKind::kResponseRx],
              rt.counter_value("rt.responses_received"))
        << "node " << i;
  }

  obs::AssemblerOptions options;
  options.n = kN;
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
  int got = 0;
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
  EXPECT_TRUE(eventually([&] {
    typed1.poll(from_millis(50));
    return got == 1;
  }));
  typed0.stop();
  typed1.stop();
}

TEST(UdpTransport, PollDeliversEveryReadyDatagramOnTheCallingThread) {
  UdpTransport tx({ProcessId{0}, 2, 39210});
  UdpTransport rx({ProcessId{1}, 2, 39210});
  std::vector<std::uint8_t> got;
  std::size_t off_thread = 0;
  const auto caller = std::this_thread::get_id();
  tx.set_handler([](ProcessId, std::span<const std::uint8_t>) {});
  rx.set_handler([&](ProcessId from, std::span<const std::uint8_t> d) {
    if (std::this_thread::get_id() != caller) ++off_thread;
    EXPECT_EQ(from, ProcessId{0});  // named from the source port
    got.push_back(d.empty() ? 0 : d[0]);
  });
  try {
    tx.start();
    rx.start();
  } catch (const std::system_error& e) {
    GTEST_SKIP() << "UDP loopback unavailable: " << e.what();
  }
  // More than one 16-slot recvmmsg batch, all queued before the poll.
  constexpr std::uint8_t kSends = 40;
  for (std::uint8_t i = 0; i < kSends; ++i) {
    const std::vector<std::uint8_t> datagram{i, 0xAB};
    tx.send(ProcessId{1}, datagram);
  }
  std::this_thread::sleep_for(200ms);
  rx.poll(from_millis(1000));
  ASSERT_EQ(got.size(), kSends);
  for (std::uint8_t i = 0; i < kSends; ++i) EXPECT_EQ(got[i], i);
  EXPECT_EQ(off_thread, 0u);

  // Nothing ready: poll waits out max_wait and calls no handler.
  const auto before = std::chrono::steady_clock::now();
  rx.poll(from_millis(50));
  const auto waited = std::chrono::steady_clock::now() - before;
  EXPECT_EQ(got.size(), kSends);
  EXPECT_GE(waited, 45ms);
  EXPECT_LT(waited, 2s);
  tx.stop();
  rx.stop();
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

TEST(RealTimeDetector, StopReturnsPromptlyWhileARoundWaitsForItsResend) {
  // Node 0 alone cannot reach its quorum of 2, so its first round waits for
  // the default 500 ms resend wave; stop() must not wait that out.
  TypedHub h(3);
  RealTimeDetector node(h.at(0), rt_config(0, 3, 1));
  node.start();
  std::this_thread::sleep_for(100ms);
  const auto before = std::chrono::steady_clock::now();
  node.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - before, 200ms);
  EXPECT_EQ(node.rounds_completed(), 0u);
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
