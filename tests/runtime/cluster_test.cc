// Integration tests: the full asynchronous detector running in simulated
// clusters — the <>S properties end to end.
#include "runtime/cluster.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <variant>

#include "core/properties.h"
#include "metrics/analysis.h"
#include "transport/codec.h"

namespace mmrfd::runtime {
namespace {

MmrClusterConfig base_config(std::uint32_t n, std::uint32_t f,
                             std::uint64_t seed) {
  MmrClusterConfig c;
  c.n = n;
  c.f = f;
  c.seed = seed;
  c.pacing = from_millis(100);
  c.mean_delay = from_millis(1);
  return c;
}

TEST(MmrCluster, AllHostsIssueRounds) {
  MmrCluster cluster(base_config(8, 2, 1));
  cluster.start();
  cluster.run_for(from_seconds(5));
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_GT(cluster.host(ProcessId{i}).detector().rounds_completed(), 20u)
        << "host " << i;
  }
}

TEST(MmrCluster, NoSuspicionsWithoutCrashesUnderConstantDelays) {
  auto cfg = base_config(10, 3, 2);
  cfg.delay_preset = net::DelayPreset::kConstant;
  MmrCluster cluster(cfg);
  cluster.start();
  cluster.run_for(from_seconds(10));
  EXPECT_TRUE(cluster.log().events().empty());
}

TEST(MmrCluster, CrashEventuallySuspectedByAllCorrect) {
  // Strong completeness on a single crash.
  auto cfg = base_config(10, 3, 3);
  MmrCluster cluster(cfg);
  CrashPlan plan;
  plan.entries.push_back({ProcessId{4}, from_seconds(2)});
  cluster.start(plan);
  cluster.run_for(from_seconds(20));
  for (std::uint32_t i = 0; i < 10; ++i) {
    if (i == 4) continue;
    EXPECT_TRUE(cluster.host(ProcessId{i}).detector().is_suspected(
        ProcessId{4}))
        << "observer " << i;
  }
}

TEST(MmrCluster, StrongCompletenessWithFCrashes) {
  auto cfg = base_config(12, 4, 4);
  MmrCluster cluster(cfg);
  const auto plan = CrashPlan::uniform(4, 12, from_seconds(2),
                                       from_seconds(8), cfg.seed);
  cluster.start(plan);
  cluster.run_for(from_seconds(30));
  metrics::Analysis analysis(cluster.log(), 12, from_seconds(30));
  EXPECT_TRUE(analysis.strong_completeness());
  EXPECT_EQ(analysis.faulty().size(), 4u);
}

TEST(MmrCluster, CrashedProcessNeverUnsuspectedAgain) {
  auto cfg = base_config(8, 2, 5);
  MmrCluster cluster(cfg);
  CrashPlan plan;
  plan.entries.push_back({ProcessId{1}, from_seconds(1)});
  cluster.start(plan);
  cluster.run_for(from_seconds(20));
  // Once every correct process suspects p1, no Cleared event for p1 may
  // follow the last Suspected event (permanence).
  const auto detections =
      metrics::Analysis(cluster.log(), 8, from_seconds(20)).detections();
  for (const auto& d : detections) {
    ASSERT_TRUE(d.detected_at.has_value())
        << "observer " << d.observer.value << " never settled";
  }
}

TEST(MmrCluster, FastSetYieldsEventualAccuracy) {
  // Engineer MP: p0 is fast toward everyone. Use a heavy-tailed delay model
  // so accuracy is non-trivial, then verify the checker agrees MP held and
  // that suspicion of the witness stops.
  auto cfg = base_config(8, 2, 6);
  cfg.delay_preset = net::DelayPreset::kPareto;
  cfg.mean_delay = from_millis(5);
  cfg.fast_set = {ProcessId{0}};
  cfg.fast_factor = 0.05;
  MmrCluster cluster(cfg);
  cluster.start();
  cluster.run_for(from_seconds(60));
  std::vector<ProcessId> correct;
  for (std::uint32_t i = 0; i < 8; ++i) correct.push_back(ProcessId{i});
  core::MpChecker checker(cluster.recorder(), cfg.f, correct);
  const auto verdict = checker.check();
  ASSERT_TRUE(verdict.holds);
  EXPECT_EQ(verdict.witness, ProcessId{0});
  // No correct process should, at the end, still suspect p0.
  for (std::uint32_t i = 1; i < 8; ++i) {
    EXPECT_FALSE(
        cluster.host(ProcessId{i}).detector().is_suspected(ProcessId{0}));
  }
}

namespace golden {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t digest(const MmrCluster& cluster) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& e : cluster.log().events()) {
    h = fnv1a(h, static_cast<std::uint64_t>(e.when.count()));
    h = fnv1a(h, e.observer.value);
    h = fnv1a(h, e.subject.value);
    h = fnv1a(h, static_cast<std::uint64_t>(e.kind));
    h = fnv1a(h, e.tag);
  }
  for (const auto& c : cluster.log().crashes()) {
    h = fnv1a(h, static_cast<std::uint64_t>(c.when.count()));
    h = fnv1a(h, c.subject.value);
  }
  h = fnv1a(h, cluster.network().stats().messages_sent);
  h = fnv1a(h, cluster.network().stats().messages_delivered);
  return h;
}

}  // namespace golden

TEST(MmrCluster, GoldenDigestPinnedAcrossRefactors) {
  // These digests were captured from the seed implementation (std::function
  // event heap, per-recipient message copies). Any substrate refactor —
  // pooled event slab, shared-payload broadcast, delta-encoded queries —
  // must reproduce fixed-seed runs bit-for-bit: same EventLog, same message
  // counts, same event count. Each scenario runs in BOTH encodings and must
  // hit the SAME pinned digest: the delta wire format may change what a
  // query carries, never what the protocol does or when. If a change
  // legitimately alters the schedule (e.g. a different rng draw order),
  // recapture the constants and say so in the commit message.
  for (const bool delta : {false, true}) {
    auto cfg = base_config(8, 2, 77);
    cfg.delay_preset = net::DelayPreset::kExponential;
    cfg.delta_queries = delta;
    MmrCluster cluster(cfg);
    const auto plan =
        CrashPlan::uniform(2, 8, from_seconds(1), from_seconds(5), cfg.seed);
    cluster.start(plan);
    cluster.run_for(from_seconds(15));
    // Recaptured when the crashed-peer give-up policy (giveup_rounds = 8,
    // on by default) landed: peers suspected for 8 consecutive rounds are
    // probed at 1/8 rate, so crash scenarios send fewer messages and fire
    // fewer events than the seed schedule. Knobs-off schedules (no crashes,
    // fault injection disabled) remain bit-identical to the seed.
    // Recaptured again when rounds started suspecting half a pause after
    // their quorum: a round now takes two pacing events (the grace's end
    // and the pause's end), or one when its finish suspects a new peer.
    EXPECT_EQ(golden::digest(cluster), 16135280761614730748ull)
        << "delta=" << delta;
    EXPECT_EQ(cluster.network().stats().messages_sent, 10667u)
        << "delta=" << delta;
    EXPECT_EQ(cluster.simulation().events_fired(), 12545u)
        << "delta=" << delta;
  }
  for (const bool delta : {false, true}) {
    auto cfg = base_config(24, 6, 123);
    cfg.pacing_jitter = 0.25;
    cfg.mean_delay = from_millis(2);
    cfg.delay_preset = net::DelayPreset::kPareto;
    cfg.delta_queries = delta;
    SpikeSpec spike;
    spike.start = from_seconds(4);
    spike.end = from_seconds(6);
    spike.factor = 50.0;
    spike.affected = {ProcessId{3}};
    cfg.spike = spike;
    MmrCluster cluster(cfg);
    const auto plan = CrashPlan::uniform(4, 24, from_seconds(2),
                                         from_seconds(8), cfg.seed);
    cluster.start(plan);
    cluster.run_for(from_seconds(12));
    // Log digest recaptured once after the no-op-mistake dedup (observers
    // now see mistake *transitions*; the seed logged a kMistake per
    // tied-tag re-merge), then again — together with messages_sent and
    // events_fired — when the default-on give-up policy thinned the
    // crash-scenario schedule (see the comment on the first scenario), and
    // once more when give-up streaks stopped growing on suspected peers
    // that respond (a falsely suspected peer now leaves the skip set at its
    // first probe response), and with the grace split (see above).
    EXPECT_EQ(golden::digest(cluster), 6494386206321986256ull)
        << "delta=" << delta;
    EXPECT_EQ(cluster.network().stats().messages_sent, 106868u)
        << "delta=" << delta;
    EXPECT_EQ(cluster.simulation().events_fired(), 111776u)
        << "delta=" << delta;
  }
}

/// The first golden scenario (n = 8, f = 2, seed 77, two crashes, 15 s)
/// in one encoding, every send measured by `size`.
net::NetworkStats golden_wire_run(bool delta, MmrNetwork::SizeFn size) {
  auto cfg = base_config(8, 2, 77);
  cfg.delay_preset = net::DelayPreset::kExponential;
  cfg.delta_queries = delta;
  MmrCluster cluster(cfg);
  cluster.network().set_size_fn(std::move(size));
  const auto plan =
      CrashPlan::uniform(2, 8, from_seconds(1), from_seconds(5), cfg.seed);
  cluster.start(plan);
  cluster.run_for(from_seconds(15));
  return cluster.network().stats();
}

std::size_t message_wire_size(const MmrMessage& m) {
  return std::visit([](const auto& msg) { return transport::wire_size(msg); },
                    m);
}

TEST(MmrCluster, GoldenDeltaWireBytesPinned) {
  // Pins the delta schedule's *wire cost* alongside the state digest: a
  // future PR that silently grows the delta encoding (or breaks watermark
  // advancement, degrading every query to the full fallback) moves these
  // numbers even though the state digest stays put. Bytes are exact for a
  // fixed seed — wire_size is a pure function of the messages sent.
  const auto full_bytes = golden_wire_run(false, message_wire_size).bytes_sent;
  const auto delta_bytes = golden_wire_run(true, message_wire_size).bytes_sent;
  // Recapture both constants together if the wire format changes on purpose.
  // Recaptured with the give-up-policy schedule change (fewer queries to
  // settled-suspected peers after the crash window — see the golden-digest
  // comments above), again with the grace split, with the LEB128 format
  // (varint headers and entries, id gaps), which took them from 283,514
  // and 212,009 bytes, and with datagrams that carry only the message (no
  // sender or type bytes, no counts in a query without entries), which
  // took them from 101,833 and 100,448 bytes.
  EXPECT_EQ(full_bytes, 46328u);
  EXPECT_EQ(delta_bytes, 36961u);
  EXPECT_LT(delta_bytes, full_bytes);
}

TEST(MmrCluster, SizeHookCountsTheEncodedBytesOfEverySend) {
  // Every wire-byte figure (the golden above, BENCH_scale rows, the
  // benchmark) is wire_size at the size hook, never an encoder's output:
  // it is only as honest as this equality, checked on every message of
  // the golden run in both encodings.
  for (const bool delta : {false, true}) {
    std::uint64_t checked = 0;
    std::uint64_t mismatches = 0;
    const auto stats = golden_wire_run(delta, [&](const MmrMessage& m) {
      const std::size_t size = message_wire_size(m);
      if (transport::encode_message(m).size() != size) {
        ++mismatches;
      }
      ++checked;
      return size;
    });
    EXPECT_EQ(checked, stats.messages_sent) << "delta=" << delta;
    EXPECT_EQ(mismatches, 0u) << "delta=" << delta;
  }
}

TEST(MmrCluster, EveryObserverDetectsWithinEightTenthsOfAPause) {
  // Fixed seed: n = 16, f = 4, exponential 1 ms delays, 1 s pacing +-10%,
  // three crashes, no spike. A round suspects its silent peers half a
  // pause after its quorum and a fresh suspicion goes out at once, so the
  // first observer to detect a crash tells the rest within a wire delay.
  // On this seed the latencies span 0.508-0.590 s. Suspecting only at the
  // end of the pause, the schedule before the grace split could detect no
  // sooner than ~0.9 pacing after a crash: it measured 1.000-1.055 s here.
  auto cfg = base_config(16, 4, 17);
  cfg.pacing = from_millis(1000);
  cfg.pacing_jitter = 0.1;
  cfg.delay_preset = net::DelayPreset::kExponential;
  MmrCluster cluster(cfg);
  const auto plan =
      CrashPlan::uniform(3, 16, from_seconds(2), from_seconds(8), cfg.seed);
  cluster.start(plan);
  cluster.run_for(from_seconds(20));
  const metrics::Analysis analysis(cluster.log(), 16, from_seconds(20));
  const auto detections = analysis.detections();
  ASSERT_EQ(detections.size(), 3u * 13u);
  for (const metrics::Detection& d : detections) {
    ASSERT_TRUE(d.latency().has_value())
        << d.observer.value << " never suspected " << d.subject.value;
    EXPECT_LT(*d.latency(), from_millis(800))
        << d.observer.value << " detected " << d.subject.value;
  }
}

TEST(MmrCluster, DeterministicGivenSeed) {
  auto run_digest = [](std::uint64_t seed) {
    auto cfg = base_config(8, 2, seed);
    cfg.delay_preset = net::DelayPreset::kExponential;
    MmrCluster cluster(cfg);
    const auto plan =
        CrashPlan::uniform(2, 8, from_seconds(1), from_seconds(5), seed);
    cluster.start(plan);
    cluster.run_for(from_seconds(15));
    std::ostringstream os;
    for (const auto& e : cluster.log().events()) {
      os << e.when.count() << ':' << e.observer.value << ':'
         << e.subject.value << ':' << static_cast<int>(e.kind) << ';';
    }
    os << '#' << cluster.network().stats().messages_sent;
    return os.str();
  };
  EXPECT_EQ(run_digest(77), run_digest(77));
  EXPECT_NE(run_digest(77), run_digest(78));
}

TEST(MmrCluster, SpikeCausesFalseSuspicionsThatAreRepaired) {
  auto cfg = base_config(8, 2, 8);
  cfg.delay_preset = net::DelayPreset::kConstant;
  // p7's links slow down 200x for 3 seconds: long enough that its responses
  // miss the quorum window of several rounds.
  SpikeSpec spike;
  spike.start = from_seconds(5);
  spike.end = from_seconds(8);
  spike.factor = 200.0;
  spike.affected = {ProcessId{7}};
  cfg.spike = spike;
  MmrCluster cluster(cfg);
  cluster.start();
  cluster.run_for(from_seconds(30));
  metrics::Analysis analysis(cluster.log(), 8, from_seconds(30));
  const auto fs = analysis.false_suspicions();
  ASSERT_FALSE(fs.empty());  // the spike produced wrongful suspicions...
  for (const auto& f : fs) {
    EXPECT_EQ(f.subject, ProcessId{7});
    EXPECT_TRUE(f.cleared_at.has_value())  // ...and every one was repaired
        << f.observer.value << " never cleared " << f.subject.value;
  }
  const auto stable = analysis.accuracy_stabilization();
  ASSERT_TRUE(stable.has_value());
}

TEST(MmrCluster, AliveListShrinksOnCrash) {
  MmrCluster cluster(base_config(5, 1, 10));
  CrashPlan plan;
  plan.entries.push_back({ProcessId{2}, from_seconds(1)});
  cluster.start(plan);
  EXPECT_EQ(cluster.alive().size(), 5u);
  cluster.run_for(from_seconds(2));
  EXPECT_EQ(cluster.alive().size(), 4u);
  EXPECT_TRUE(cluster.host(ProcessId{2}).crashed());
}

TEST(MmrCluster, QueriesKeepTerminatingWithUpToFCrashes) {
  // Liveness of the query mechanism itself: with exactly f crashes the
  // remaining n - f processes still form a quorum.
  auto cfg = base_config(6, 2, 11);
  MmrCluster cluster(cfg);
  const auto plan = CrashPlan::simultaneous(
      std::vector<ProcessId>{ProcessId{0}, ProcessId{1}}, from_seconds(2));
  cluster.start(plan);
  cluster.run_for(from_seconds(10));
  const auto rounds_mid =
      cluster.host(ProcessId{5}).detector().rounds_completed();
  cluster.run_for(from_seconds(10));
  EXPECT_GT(cluster.host(ProcessId{5}).detector().rounds_completed(),
            rounds_mid);
}

TEST(CrashPlan, UniformRespectsProtectAndCount) {
  const std::vector<ProcessId> protect{ProcessId{0}, ProcessId{1}};
  const auto plan = CrashPlan::uniform(3, 10, from_seconds(1), from_seconds(9),
                                       123, protect);
  EXPECT_EQ(plan.entries.size(), 3u);
  for (const auto& e : plan.entries) {
    EXPECT_GE(e.victim.value, 2u);
    EXPECT_GE(e.when, from_seconds(1));
    EXPECT_LT(e.when, from_seconds(9));
  }
  const auto victims = plan.victims();
  EXPECT_EQ(std::set<ProcessId>(victims.begin(), victims.end()).size(), 3u);
}

TEST(CrashPlan, SimultaneousAndContains) {
  const std::vector<ProcessId> vs{ProcessId{3}, ProcessId{4}};
  const auto plan = CrashPlan::simultaneous(vs, from_seconds(2));
  EXPECT_TRUE(plan.crashes(ProcessId{3}));
  EXPECT_FALSE(plan.crashes(ProcessId{5}));
}

}  // namespace
}  // namespace mmrfd::runtime
