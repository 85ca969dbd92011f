// Real-transport integration: the simulator-verified core over sockets and
// one protocol thread per node, each RealTimeDetector straight over its
// datagram endpoint. Transports own no thread, so the transport cases poll
// them on the test thread; the detector cases use generous wall-clock
// budgets and liveness-style assertions (eventually-suspects /
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
#include <set>
#include <span>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <variant>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/trace_assembler.h"
#include "transport/codec.h"
#include "transport/inmemory_transport.h"
#include "transport/realtime_detector.h"
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

/// A decorator that records every datagram sent through it, in order, and
/// hands the handler a datagram from any sender, even one no transport
/// could name. Read sent() only while no protocol thread sends.
class RecordingTransport final : public DatagramTransport {
 public:
  struct Sent {
    ProcessId to;
    std::vector<std::uint8_t> bytes;
  };

  explicit RecordingTransport(DatagramTransport& inner) : inner_(inner) {}

  void set_handler(DatagramHandler handler) override {
    handler_ = handler;
    inner_.set_handler(std::move(handler));
  }
  void start() override { inner_.start(); }
  void stop() override { inner_.stop(); }
  void poll(Duration max_wait) override { inner_.poll(max_wait); }
  void send(ProcessId to, std::span<const std::uint8_t> datagram) override {
    sent_.push_back({to, {datagram.begin(), datagram.end()}});
    inner_.send(to, datagram);
  }

  void deliver(ProcessId from, std::span<const std::uint8_t> datagram) {
    handler_(from, datagram);
  }
  [[nodiscard]] const std::vector<Sent>& sent() const { return sent_; }

 private:
  DatagramTransport& inner_;
  DatagramHandler handler_;
  std::vector<Sent> sent_;
};

void ignore_datagrams(DatagramTransport& t) {
  t.set_handler([](ProcessId, std::span<const std::uint8_t>) {});
}

TEST(InMemoryTransport, DeliversPointToPoint) {
  InMemoryHub hub(2);
  int got = 0;
  hub.endpoint(ProcessId{1})
      .set_handler([&](ProcessId from, std::span<const std::uint8_t> d) {
        EXPECT_EQ(from, ProcessId{0});
        const auto m = decode_message(d);
        ASSERT_TRUE(m.has_value());
        EXPECT_EQ(std::get<core::ResponseMessage>(*m).seq, 7u);
        ++got;
      });
  ignore_datagrams(hub.endpoint(ProcessId{0}));
  hub.endpoint(ProcessId{0}).start();
  hub.endpoint(ProcessId{1}).start();
  hub.endpoint(ProcessId{0})
      .send(ProcessId{1}, encode_message(core::ResponseMessage{7}));
  hub.endpoint(ProcessId{1}).poll(Duration::zero());
  EXPECT_EQ(got, 1);
}

TEST(InMemoryTransport, DeliversToEveryPeer) {
  constexpr std::uint32_t kN = 4;
  InMemoryHub hub(kN);
  int got = 0;
  for (std::uint32_t i = 0; i < kN; ++i) {
    hub.endpoint(ProcessId{i})
        .set_handler([&](ProcessId from, std::span<const std::uint8_t> d) {
          EXPECT_EQ(from, ProcessId{2});  // the hub names the sending endpoint
          EXPECT_TRUE(decode_message(d).has_value());
          ++got;
        });
    hub.endpoint(ProcessId{i}).start();
  }
  const auto bytes = encode_message(core::ResponseMessage{1});
  for (std::uint32_t i = 0; i < kN; ++i) {
    if (i != 2) hub.endpoint(ProcessId{2}).send(ProcessId{i}, bytes);
  }
  for (std::uint32_t i = 0; i < kN; ++i) {
    hub.endpoint(ProcessId{i}).poll(Duration::zero());
  }
  EXPECT_EQ(got, 3);
}

TEST(RealTimeDetector, MalformedDatagramsAreCountedAndDroppedUnanswered) {
  // Junk bytes from a member, and well-formed messages from a sender the
  // datagram layer could not name (an id >= n), each count once in
  // codec.malformed; none reaches the driver or gets a reply. A query from
  // a member afterwards is answered, so the reply path is live.
  constexpr std::uint32_t kN = 3;
  InMemoryHub hub(kN);
  RecordingTransport node0(hub.endpoint(ProcessId{0}));
  obs::MetricsRegistry metrics;
  obs::FlightRecorder ring(64, obs::wall_trace_clock());
  RealTimeConfig c = rt_config(0, kN, 1);
  c.registry = &metrics;
  c.recorder = &ring;
  RealTimeDetector detector(node0, c);
  const obs::Counter& malformed = metrics.counter("codec.malformed");
  core::QueryMessage query;
  query.seq = 1;
  core::ResponseMessage response;
  response.seq = 1;

  node0.deliver(ProcessId{1}, std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_EQ(malformed.value(), 1u);
  node0.deliver(ProcessId{kN}, encode_message(response));
  EXPECT_EQ(malformed.value(), 2u);
  node0.deliver(ProcessId{kN}, encode_message(query));
  EXPECT_EQ(malformed.value(), 3u);
  EXPECT_TRUE(node0.sent().empty());
  EXPECT_EQ(ring.recorded(), 0u);  // the driver saw none of them
  obs::RegistrySnapshot s = metrics.snapshot();
  EXPECT_EQ(s.counter_value("rt.queries_received"), 0u);
  EXPECT_EQ(s.counter_value("rt.responses_received"), 0u);

  node0.deliver(ProcessId{1}, encode_message(query));
  EXPECT_EQ(malformed.value(), 3u);
  ASSERT_EQ(node0.sent().size(), 1u);
  EXPECT_EQ(node0.sent()[0].to, ProcessId{1});
  const auto reply = decode_message(node0.sent()[0].bytes);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(std::get<core::ResponseMessage>(*reply).seq, 1u);
  s = metrics.snapshot();
  EXPECT_EQ(s.counter_value("rt.queries_received"), 1u);
  EXPECT_EQ(s.counter_value("rt.response_bytes_sent"),
            node0.sent()[0].bytes.size());
}

TEST(UdpTransport, DatagramFromAPortOutsideTheClusterIsCountedMalformed) {
  // Process i sends from base_port + i, and that port is all that names a
  // datagram's sender. Well-formed messages from a socket bound just below
  // the cluster's ports, one just above them, and an unbound (ephemeral
  // port) socket name no member: each is dropped and counted malformed by
  // p1's detector, while the same message from p0 reaches its driver as
  // p0's. The detector's thread never starts: the test thread polls.
  constexpr std::uint16_t kBase = 39230;
  obs::MetricsRegistry metrics;
  obs::FlightRecorder ring(64, obs::wall_trace_clock());
  UdpTransport t0({ProcessId{0}, 2, kBase});
  UdpTransport t1({ProcessId{1}, 2, kBase, &metrics});
  RealTimeConfig c = rt_config(1, 2, 1);
  c.registry = &metrics;
  c.recorder = &ring;
  RealTimeDetector p1(t1, c);
  ignore_datagrams(t0);
  try {
    t0.start();
    t1.start();
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
  t0.send(ProcessId{1}, bytes);
  const obs::Counter& malformed = metrics.counter("codec.malformed");
  EXPECT_TRUE(eventually([&] {
    t1.poll(from_millis(50));
    return metrics.counter("udp.datagrams_received").value() == 4;
  }));
  EXPECT_EQ(malformed.value(), 3u);
  std::vector<ProcessId> senders;
  for (const obs::TraceRecord& r : ring.snapshot()) {
    if (r.kind == obs::TraceKind::kResponseRx) senders.push_back(ProcessId{r.a});
  }
  EXPECT_EQ(senders, std::vector<ProcessId>{ProcessId{0}});
  EXPECT_EQ(metrics.counter("rt.responses_received").value(), 1u);
  t0.stop();
  t1.stop();
}

TEST(RealTimeDetector, InMemoryClusterRunsRoundsAndStaysClean) {
  constexpr std::uint32_t kN = 4;
  InMemoryHub hub(kN);
  std::vector<std::unique_ptr<RealTimeDetector>> nodes;
  for (std::uint32_t i = 0; i < kN; ++i) {
    nodes.push_back(std::make_unique<RealTimeDetector>(
        hub.endpoint(ProcessId{i}), rt_config(i, kN, 1)));
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
  InMemoryHub hub(kN);
  std::vector<std::unique_ptr<RealTimeDetector>> nodes;
  for (std::uint32_t i = 0; i < kN; ++i) {
    nodes.push_back(std::make_unique<RealTimeDetector>(
        hub.endpoint(ProcessId{i}), rt_config(i, kN, 1)));
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
  InMemoryHub hub(kN);
  std::vector<std::unique_ptr<obs::FlightRecorder>> rings;
  std::vector<std::unique_ptr<RealTimeDetector>> nodes;
  for (std::uint32_t i = 0; i < kN; ++i) {
    rings.push_back(std::make_unique<obs::FlightRecorder>(
        std::size_t{1} << 16, obs::wall_trace_clock()));
    RealTimeConfig c = rt_config(i, kN, 2);
    c.recorder = rings.back().get();
    nodes.push_back(
        std::make_unique<RealTimeDetector>(hub.endpoint(ProcessId{i}), c));
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

  obs::TraceAssembler assembler(obs::AssemblerOptions{});
  for (std::uint32_t i = 0; i < kN; ++i) {
    assembler.add_node({i, 0, rings[i]->snapshot()});
  }
  const obs::AssembledTrace trace = assembler.assemble();
  EXPECT_GT(trace.matched_pairs, 0u);
  EXPECT_EQ(trace.causal_violations, 0u)
      << "of " << trace.matched_pairs << " matched exchanges";
}

TEST(RealTimeDetector, FanOutsSendOneEncodingPerPayloadInThePeersOrder) {
  // Node 0 of an in-memory cluster sends through a recording decorator.
  // Every node drops its receive watermarks every 3 rounds, so node 0's
  // next delta to it is answered need_full and its next round mixes the
  // full encoding with deltas; node 3 stops, and with giveup_rounds = 2
  // every other round leaves it out. Node 0's ring holds the driver's plan:
  // a round_open or resend_wave record opens each fan-out, a give_up_skip
  // just before a round_open names a peer that round skips, and a query_tx
  // names each planned recipient in send order.
  constexpr std::uint32_t kN = 4;
  InMemoryHub hub(kN);
  RecordingTransport node0(hub.endpoint(ProcessId{0}));
  obs::FlightRecorder ring(std::size_t{1} << 16, obs::wall_trace_clock());
  std::vector<std::unique_ptr<RealTimeDetector>> nodes;
  for (std::uint32_t i = 0; i < kN; ++i) {
    RealTimeConfig c = rt_config(i, kN, 1);
    c.detector.giveup_rounds = 2;
    c.detector.resync_interval = 3;
    if (i == 0) c.recorder = &ring;
    DatagramTransport& t = i == 0 ? node0 : hub.endpoint(ProcessId{i});
    nodes.push_back(std::make_unique<RealTimeDetector>(t, c));
  }
  for (auto& n : nodes) n->start();
  ASSERT_TRUE(eventually([&] { return nodes[0]->rounds_completed() >= 5; }));
  nodes[3]->stop();
  EXPECT_TRUE(eventually([&] { return nodes[0]->rounds_completed() >= 60; }));
  for (auto& n : nodes) n->stop();
  ASSERT_LE(ring.recorded(), ring.capacity());

  struct FanOut {
    bool issue{false};
    std::set<std::uint32_t> skipped;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> to_seq;
  };
  std::vector<FanOut> plan;
  std::set<std::uint32_t> skips;
  for (const obs::TraceRecord& r : ring.snapshot()) {
    if (r.kind == obs::TraceKind::kGiveUpSkip) skips.insert(r.a);
    if (r.kind == obs::TraceKind::kRoundOpen) {
      plan.push_back({true, std::move(skips), {}});
      skips.clear();
    }
    if (r.kind == obs::TraceKind::kResendWave) plan.push_back({});
    if (r.kind == obs::TraceKind::kQueryTx) {
      ASSERT_FALSE(plan.empty());
      plan.back().to_seq.emplace_back(r.a, r.b);
    }
  }
  std::vector<const RecordingTransport::Sent*> queries;
  for (const RecordingTransport::Sent& d : node0.sent()) {
    const auto m = decode_message(d.bytes);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(encode_message(*m), d.bytes);
    if (std::holds_alternative<core::QueryMessage>(*m)) queries.push_back(&d);
  }

  std::size_t next = 0, mixed = 0, skipping = 0;
  std::uint64_t bytes = 0, full = 0, delta = 0;
  for (const FanOut& f : plan) {
    std::vector<std::uint32_t> planned;
    for (const auto& [to, seq] : f.to_seq) planned.push_back(to);
    EXPECT_TRUE(std::is_sorted(planned.begin(), planned.end()));
    if (f.issue) {
      // An issue goes to every peer but the skipped, in ascending order.
      std::vector<std::uint32_t> peers;
      for (std::uint32_t p = 1; p < kN; ++p) {
        if (f.skipped.count(p) == 0) peers.push_back(p);
      }
      EXPECT_EQ(planned, peers);
      if (f.skipped.count(3) != 0) ++skipping;
    }
    // One payload per base epoch (0: the full encoding), so every recipient
    // of one base gets the same bytes.
    std::map<Epoch, const std::vector<std::uint8_t>*> payloads;
    for (const auto& [to, seq] : f.to_seq) {
      ASSERT_LT(next, queries.size());
      const RecordingTransport::Sent& d = *queries[next++];
      EXPECT_EQ(d.to, ProcessId{to});
      const auto q = std::get<core::QueryMessage>(*decode_message(d.bytes));
      EXPECT_EQ(static_cast<std::uint32_t>(q.seq), seq);
      const Epoch base = q.is_delta() ? q.base_epoch : 0;
      const auto [it, first] = payloads.emplace(base, &d.bytes);
      EXPECT_EQ(*it->second, d.bytes) << "to " << to << ", base " << base;
      ++(q.is_delta() ? delta : full);
      bytes += d.bytes.size();
    }
    if (payloads.count(0) != 0 && payloads.size() > 1) ++mixed;
  }
  EXPECT_EQ(next, queries.size()) << "a query the driver never planned";
  EXPECT_GT(mixed, 0u) << "no fan-out mixed the full encoding and a delta";
  EXPECT_GT(skipping, 0u) << "no fan-out left the stopped peer out";
  const obs::RegistrySnapshot rt = nodes[0]->metrics().snapshot();
  EXPECT_EQ(rt.counter_value("rt.full_queries_sent"), full);
  EXPECT_EQ(rt.counter_value("rt.delta_queries_sent"), delta);
  EXPECT_EQ(rt.counter_value("rt.query_bytes_sent"), bytes);
}

TEST(UdpTransport, LoopbackRoundTrip) {
  UdpTransport t0({ProcessId{0}, 2, 39200});
  UdpTransport t1({ProcessId{1}, 2, 39200});
  core::QueryMessage q;
  q.seq = 3;
  q.push_suspected({ProcessId{1}, 9});
  int got = 0;
  ignore_datagrams(t0);
  t1.set_handler([&](ProcessId from, std::span<const std::uint8_t> d) {
    EXPECT_EQ(from, ProcessId{0});
    const auto m = decode_message(d);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(std::get<core::QueryMessage>(*m), q);
    ++got;
  });
  try {
    t0.start();
    t1.start();
  } catch (const std::system_error& e) {
    GTEST_SKIP() << "UDP loopback unavailable: " << e.what();
  }
  t0.send(ProcessId{1}, encode_message(q));
  EXPECT_TRUE(eventually([&] {
    t1.poll(from_millis(50));
    return got == 1;
  }));
  t0.stop();
  t1.stop();
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
  std::vector<std::unique_ptr<RealTimeDetector>> nodes;
  for (std::uint32_t i = 0; i < kN; ++i) {
    udp.push_back(
        std::make_unique<UdpTransport>(UdpConfig{ProcessId{i}, kN, 39300}));
    nodes.push_back(
        std::make_unique<RealTimeDetector>(*udp[i], rt_config(i, kN, 1)));
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
  InMemoryHub hub(2);
  for (const Duration resend : {Duration::zero(), from_millis(-1)}) {
    RealTimeConfig c = rt_config(0, 2, 1);
    c.resend = resend;
    EXPECT_THROW(RealTimeDetector(hub.endpoint(ProcessId{0}), c),
                 std::invalid_argument);
  }
}

TEST(RealTimeDetector, StopReturnsPromptlyWhileARoundWaitsForItsResend) {
  // Node 0 alone cannot reach its quorum of 2, so its first round waits for
  // the default 500 ms resend wave; stop() must not wait that out.
  InMemoryHub hub(3);
  RealTimeDetector node(hub.endpoint(ProcessId{0}), rt_config(0, 3, 1));
  node.start();
  std::this_thread::sleep_for(100ms);
  const auto before = std::chrono::steady_clock::now();
  node.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - before, 200ms);
  EXPECT_EQ(node.rounds_completed(), 0u);
}

TEST(RealTimeDetector, StopIsIdempotentAndRestartable) {
  InMemoryHub hub(2);
  RealTimeDetector a(hub.endpoint(ProcessId{0}), rt_config(0, 2, 1));
  RealTimeDetector b(hub.endpoint(ProcessId{1}), rt_config(1, 2, 1));
  a.start();
  b.start();
  EXPECT_TRUE(eventually([&] { return a.rounds_completed() >= 2; }));
  a.stop();
  a.stop();  // idempotent
  b.stop();
}

}  // namespace
}  // namespace mmrfd::transport
