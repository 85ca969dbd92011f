// TraceAssembler unit suite: the once-only tx -> rx links and their causal
// check, incarnation merging, the latency split, the horizon clip, the
// binary dump loader (including torn fatal-signal dumps), the first-round
// wave check and the manifest round-trip.
#include "obs/trace_assembler.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"

namespace mmrfd::obs {
namespace {

// Builds per-node synthetic rings on one clock. Each exchange(a, b, seq,
// t1, d_out, proc, d_back) plants the whole causal chain: A's query tx, B's
// rx, B's response tx, A's response rx.
class SyntheticCluster {
 public:
  explicit SyntheticCluster(std::uint32_t n) : seqs_(n, 0) {}

  void exchange(std::uint32_t a, std::uint32_t b, std::uint32_t seq,
                std::uint64_t t1, std::uint64_t d_out, std::uint64_t proc,
                std::uint64_t d_back) {
    add(a, TraceKind::kQueryTx, b, seq, t1);
    add(b, TraceKind::kQueryRx, a, seq, t1 + d_out);
    add(b, TraceKind::kResponseTx, a, seq, t1 + d_out + proc);
    add(a, TraceKind::kResponseRx, b, seq, t1 + d_out + proc + d_back);
  }

  void add(std::uint32_t node, TraceKind kind, std::uint32_t a,
           std::uint32_t b, std::uint64_t t) {
    TraceRecord r;
    r.t_ns = t;
    r.seq = seqs_[node]++;
    r.a = a;
    r.b = b;
    r.kind = kind;
    records_[node].push_back(r);
  }

  [[nodiscard]] TraceAssembler assembler(AssemblerOptions options = {}) const {
    TraceAssembler out(options);
    for (std::uint32_t i = 0; i < seqs_.size(); ++i) {
      auto it = records_.find(i);
      out.add_node(TraceNodeInput{
          i, 0,
          it == records_.end() ? std::vector<TraceRecord>{} : it->second});
    }
    return out;
  }

 private:
  std::vector<std::uint64_t> seqs_;
  std::map<std::uint32_t, std::vector<TraceRecord>> records_;
};

constexpr std::uint64_t kBase = 1'000'000'000;

TEST(TraceAssembler, ResentExchangesAreNotLinked) {
  SyntheticCluster cluster(2);
  cluster.exchange(0, 1, 1, kBase, 400'000, 50'000, 400'000);
  cluster.exchange(0, 1, 2, kBase + 10'000'000, 400'000, 50'000, 400'000);
  // Round 2's query was retransmitted after its rx: a second kQueryTx with
  // the same (peer, seq) links neither send, since which of the two the rx
  // answered is unknowable. So the rx stamped before the resend is no
  // violation. Round 2's response and both of round 1's steps still link.
  cluster.add(0, TraceKind::kQueryTx, 1, 2, kBase + 11'000'000);
  const AssembledTrace trace = cluster.assembler().assemble();
  EXPECT_EQ(trace.matched_pairs, 3u);
  EXPECT_EQ(trace.causal_violations, 0u);
}

TEST(TraceAssembler, AnRxStampedBeforeItsTxIsACausalViolation) {
  // Every tx is stamped before its send, on the one host clock, so no rx
  // may read an earlier stamp than its tx. Round 2's response breaks that
  // by 1 us; every other link holds.
  SyntheticCluster cluster(2);
  cluster.exchange(0, 1, 1, kBase, 400'000, 50'000, 400'000);
  cluster.add(0, TraceKind::kQueryTx, 1, 2, kBase + 10'000'000);
  cluster.add(1, TraceKind::kQueryRx, 0, 2, kBase + 10'400'000);
  cluster.add(1, TraceKind::kResponseTx, 0, 2, kBase + 10'450'000);
  cluster.add(0, TraceKind::kResponseRx, 1, 2, kBase + 10'449'000);
  const AssembledTrace trace = cluster.assembler().assemble();
  EXPECT_EQ(trace.matched_pairs, 4u);
  EXPECT_EQ(trace.causal_violations, 1u);
}

TEST(TraceAssembler, IncarnationsMergeInOrderNotBySeq) {
  // A re-exec'd node restarts its recorder: incarnation 1's sequence
  // numbers start over at 0. The merged stream must still put incarnation
  // 0 first — here g0 suspects the victim and g1 (fresh state) drops the
  // suspicion, so the node's final verdict is "not suspected". Merging by
  // seq alone would invert that.
  TraceAssembler assembler(AssemblerOptions{});
  TraceRecord add;
  add.t_ns = kBase;
  add.seq = 500;  // deep into incarnation 0's life
  add.a = 1;
  add.kind = TraceKind::kSuspectAdd;
  TraceRecord drop;
  drop.t_ns = kBase + 1'000'000;
  drop.seq = 3;  // early in incarnation 1's life
  drop.a = 1;
  drop.kind = TraceKind::kSuspectDrop;
  assembler.add_node(TraceNodeInput{0, 0, {add}});
  assembler.add_node(TraceNodeInput{0, 1, {drop}});
  assembler.add_crash(1, static_cast<std::int64_t>(kBase) - 1000);
  const AssembledTrace trace = assembler.assemble();
  ASSERT_EQ(trace.crashes.size(), 1u);
  EXPECT_EQ(trace.crashes[0].undetected, 1u);
  EXPECT_TRUE(trace.crashes[0].observers.empty());
}

TEST(TraceAssembler, BreakdownComponentsSumToLatencyExactly) {
  // Full detecting-round shape: round open after the crash, one resend
  // wave, quorum, then the suspicion. pacing + resend_wait + wire must
  // reproduce the latency to the nanosecond.
  SyntheticCluster cluster(2);
  const std::int64_t crash = static_cast<std::int64_t>(kBase);
  cluster.add(0, TraceKind::kRoundOpen, 7, 0, kBase + 40'000'000);
  cluster.add(0, TraceKind::kResendWave, 1, 1, kBase + 90'000'000);
  cluster.add(0, TraceKind::kQuorum, 7, 3, kBase + 95'000'000);
  cluster.add(0, TraceKind::kSuspectAdd, 1, 0, kBase + 96'000'000);
  TraceAssembler assembler = cluster.assembler();
  assembler.add_crash(1, crash);
  const AssembledTrace trace = assembler.assemble();
  ASSERT_EQ(trace.crashes.size(), 1u);
  ASSERT_EQ(trace.crashes[0].observers.size(), 1u);
  const ObserverBreakdown& ob = trace.crashes[0].observers[0];
  EXPECT_EQ(ob.latency_ns, 96'000'000);
  EXPECT_EQ(ob.pacing_ns, 40'000'000 + 1'000'000);  // pre-open + post-quorum
  EXPECT_EQ(ob.grace_ns, 1'000'000);
  EXPECT_EQ(ob.resend_wait_ns, 50'000'000);
  EXPECT_EQ(ob.wire_ns, 5'000'000);
  EXPECT_EQ(ob.pacing_ns + ob.resend_wait_ns + ob.wire_ns, ob.latency_ns);
  EXPECT_EQ(ob.round_seq, 7u);
  EXPECT_EQ(ob.resend_waves, 1u);
}

TEST(TraceAssembler, LateWaveAfterTheQuorumIsPacingNotResendWait) {
  // The detecting round reaches its quorum on the first transmission; the
  // late wave the driver fires halfway through the grace re-sends to the
  // victim. That wave did not hold the round open, so resend_wait stays 0
  // and wire still runs from the round's open to its quorum.
  SyntheticCluster cluster(2);
  const std::int64_t crash = static_cast<std::int64_t>(kBase);
  cluster.add(0, TraceKind::kRoundOpen, 7, 0, kBase + 40'000'000);
  cluster.add(0, TraceKind::kQuorum, 7, 3, kBase + 41'000'000);
  cluster.add(0, TraceKind::kResendWave, 1, 1, kBase + 91'000'000);
  cluster.add(0, TraceKind::kSuspectAdd, 1, 0, kBase + 141'000'000);
  TraceAssembler assembler = cluster.assembler();
  assembler.add_crash(1, crash);
  const AssembledTrace trace = assembler.assemble();
  ASSERT_EQ(trace.crashes.size(), 1u);
  ASSERT_EQ(trace.crashes[0].observers.size(), 1u);
  const ObserverBreakdown& ob = trace.crashes[0].observers[0];
  EXPECT_EQ(ob.latency_ns, 141'000'000);
  EXPECT_EQ(ob.resend_wait_ns, 0);
  EXPECT_EQ(ob.resend_waves, 0u);
  EXPECT_EQ(ob.wire_ns, 1'000'000);
  EXPECT_EQ(ob.pacing_ns, 40'000'000 + 100'000'000);  // pre-open + grace
  EXPECT_EQ(ob.grace_ns, 100'000'000);
  EXPECT_EQ(ob.pacing_ns + ob.resend_wait_ns + ob.wire_ns, ob.latency_ns);
}

TEST(TraceAssembler, RecordsAlignedAfterTheHorizonAreDropped) {
  // The run ends at the horizon, as in metrics::Analysis, and the clip reads
  // origin-relative stamps. Node 0 suspects the victim, node 3, exactly at
  // the horizon: that counts. Node 1 does 1 ms before it: that counts too.
  // Node 2 does 1 ms after it: dropped, so node 2 never detected the crash.
  SyntheticCluster cluster(4);
  for (std::uint32_t s = 1; s <= 4; ++s) {
    const std::uint64_t t = kBase + s * 10'000'000ull;
    cluster.exchange(0, 1, s, t, 400'000, 50'000, 400'000);
    cluster.exchange(0, 2, s, t + 1000, 300'000, 50'000, 300'000);
  }
  constexpr std::int64_t kHorizon = 100'000'000;  // origin-relative
  constexpr std::uint64_t kEnd = kBase + kHorizon;
  cluster.add(0, TraceKind::kSuspectAdd, 3, 0, kEnd);
  cluster.add(1, TraceKind::kSuspectAdd, 3, 0, kEnd - 1'000'000);
  cluster.add(2, TraceKind::kSuspectAdd, 3, 0, kEnd + 1'000'000);
  AssemblerOptions options;
  options.origin_ns = kBase;
  options.horizon_ns = kHorizon;
  options.keep_timeline = true;
  TraceAssembler assembler = cluster.assembler(options);
  assembler.add_crash(3, 90'000'000);
  const AssembledTrace trace = assembler.assemble();
  EXPECT_EQ(trace.matched_pairs, 16u);  // a query and a response link each
  EXPECT_EQ(trace.causal_violations, 0u);
  EXPECT_EQ(trace.records, 4u * 8 + 2);
  EXPECT_EQ(trace.timeline.size(), trace.records);
  for (const TimelineEvent& e : trace.timeline) {
    EXPECT_LE(e.t_ns, kHorizon) << "node " << e.node;
    EXPECT_FALSE(e.node == 2 && e.record.kind == TraceKind::kSuspectAdd);
  }
  ASSERT_EQ(trace.crashes.size(), 1u);
  const CrashTimeline& ct = trace.crashes[0];
  ASSERT_EQ(ct.observers.size(), 2u);
  EXPECT_EQ(ct.observers[0].observer, 0u);
  EXPECT_EQ(ct.observers[0].detect_ns, kHorizon);
  EXPECT_EQ(ct.observers[1].observer, 1u);
  EXPECT_EQ(ct.observers[1].detect_ns, kHorizon - 1'000'000);
  EXPECT_EQ(ct.undetected, 1u);
  EXPECT_FALSE(ct.stable_ns.has_value());
}

// --- dump loaders ------------------------------------------------------------

class TempDir {
 public:
  TempDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("mmrfd_trace_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

std::uint64_t fixed_clock(const void*) { return 123'456'789; }

TEST(TraceLoader, BinaryDumpRoundTripsAndNeedsItsMagic) {
  TempDir dir;
  FlightRecorder recorder(16, TraceClock{&fixed_clock, nullptr});
  recorder.record(TraceKind::kRoundOpen, 1);
  recorder.record(TraceKind::kQueryTx, 2, 1);
  recorder.record(TraceKind::kQuorum, 1, 5);
  recorder.record(TraceKind::kPeerRound, 3, 9);

  ASSERT_TRUE(recorder.dump_binary_to_file(dir.path("dump.trace")));
  const auto binary = load_trace_records(dir.path("dump.trace"));
  ASSERT_TRUE(binary.has_value());
  EXPECT_EQ(*binary, recorder.snapshot());

  // A file without the magic, a text listing say, is no dump.
  {
    std::ofstream out(dir.path("text.trace"));
    out << "123456789 #0 round_open a=1 b=0\n"
           "123456789 #1 query_tx a=2 b=1\n";
  }
  EXPECT_FALSE(load_trace_records(dir.path("text.trace")).has_value());
  EXPECT_FALSE(load_trace_records(dir.path("missing.trace")).has_value());
}

TEST(TraceLoader, RejectsADumpOfTheOlderLayout) {
  // MMRTRCB1 dumps numbered the kinds differently (18 of them) and carried
  // other operands under the exchange kinds: misread, they would look like
  // valid records, so the loader refuses the whole file.
  TempDir dir;
  FlightRecorder recorder(16, TraceClock{&fixed_clock, nullptr});
  recorder.record(TraceKind::kRoundOpen, 1);
  recorder.record(TraceKind::kQueryTx, 2, 1);
  ASSERT_TRUE(recorder.dump_binary_to_file(dir.path("dump.trace")));
  std::ifstream in(dir.path("dump.trace"), std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  ASSERT_EQ(data.substr(0, 8), "MMRTRCB2");
  data.replace(0, 8, "MMRTRCB1");
  {
    std::ofstream out(dir.path("old.trace"), std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  EXPECT_TRUE(load_trace_records(dir.path("dump.trace")).has_value());
  EXPECT_FALSE(load_trace_records(dir.path("old.trace")).has_value());
}

TEST(TraceLoader, BinaryLoaderDropsTornRecordsAndTruncatedTails) {
  TempDir dir;
  FlightRecorder recorder(8, TraceClock{&fixed_clock, nullptr});
  for (int i = 0; i < 6; ++i) recorder.record(TraceKind::kRoundOpen, i);
  ASSERT_TRUE(recorder.dump_binary_to_file(dir.path("full.trace")));

  // Truncate mid-record: the loader keeps every complete record.
  std::ifstream in(dir.path("full.trace"), std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const std::size_t cut = 24 + 3 * 29 + 11;  // header + 3 records + partial
  ASSERT_LT(cut, data.size());
  {
    std::ofstream out(dir.path("torn.trace"), std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(cut));
  }
  const auto torn = load_trace_records(dir.path("torn.trace"));
  ASSERT_TRUE(torn.has_value());
  EXPECT_EQ(torn->size(), 3u);

  // Corrupt one record's kind byte past kMaxTraceKind: dropped, not fatal.
  data[24 + 29 + 28] = static_cast<char>(200);
  {
    std::ofstream out(dir.path("corrupt.trace"), std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  const auto corrupt = load_trace_records(dir.path("corrupt.trace"));
  ASSERT_TRUE(corrupt.has_value());
  EXPECT_EQ(corrupt->size(), 5u);
}

TEST(FirstRoundWave, OnlyARingThatHoldsItsFirstRoundAnswers) {
  const auto ring = [](std::size_t capacity,
                       std::initializer_list<TraceKind> kinds) {
    FlightRecorder recorder(capacity, TraceClock{&fixed_clock, nullptr});
    for (const TraceKind kind : kinds) recorder.record(kind);
    return recorder.snapshot();
  };
  using K = TraceKind;
  // The first round waits for a wave before it closes.
  EXPECT_TRUE(first_round_waited_for_wave(
      ring(16, {K::kRoundOpen, K::kQueryTx, K::kResendWave, K::kQuorum,
                K::kRoundClose})));
  // A wave in a later round is not the first round's.
  EXPECT_FALSE(first_round_waited_for_wave(
      ring(16, {K::kRoundOpen, K::kQueryTx, K::kQuorum, K::kRoundClose,
                K::kRoundOpen, K::kResendWave})));
  // A clean first round, then a second that waits for a wave; the 8-slot
  // ring wraps past the first, so it keeps seqs 4-11, which hold a wave
  // before their first round_close. That is not the first round.
  const auto wrapped =
      ring(8, {K::kRoundOpen, K::kQueryTx, K::kQuorum, K::kRoundClose,
               K::kRoundOpen, K::kQueryTx, K::kQueryTx, K::kQueryTx,
               K::kQueryTx, K::kResendWave, K::kQuorum, K::kRoundClose});
  ASSERT_EQ(wrapped.front().seq, 4u);
  EXPECT_FALSE(first_round_waited_for_wave(wrapped));
  EXPECT_FALSE(first_round_waited_for_wave({}));
}

TEST(TraceManifestIo, RoundTrips) {
  TempDir dir;
  TraceManifest manifest;
  manifest.origin_ns = 1'700'000'000'000'000'000ull;
  manifest.horizon_ns = 10'000'000'000;
  manifest.crashes.push_back({7, 1'900'000'000});
  manifest.crashes.push_back({2, 2'500'000'000});
  manifest.traces.push_back({0, 0, "node0.g0.bin.trace"});
  manifest.traces.push_back({7, 1, "node7.g1.bin.trace"});

  const std::string path = dir.path(std::string(kTraceManifestName));
  ASSERT_TRUE(write_manifest(path, manifest));
  const auto loaded = load_manifest(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->origin_ns, manifest.origin_ns);
  EXPECT_EQ(loaded->horizon_ns, manifest.horizon_ns);
  ASSERT_EQ(loaded->crashes.size(), 2u);
  EXPECT_EQ(loaded->crashes[0].victim, 7u);
  EXPECT_EQ(loaded->crashes[0].at_ns, 1'900'000'000);
  EXPECT_EQ(loaded->crashes[1].victim, 2u);
  EXPECT_EQ(loaded->crashes[1].at_ns, 2'500'000'000);
  ASSERT_EQ(loaded->traces.size(), 2u);
  EXPECT_EQ(loaded->traces[1].node, 7u);
  EXPECT_EQ(loaded->traces[1].incarnation, 1u);
  EXPECT_EQ(loaded->traces[1].file, "node7.g1.bin.trace");

  // A manifest without a horizon line leaves the assembled run unclipped.
  manifest.horizon_ns.reset();
  ASSERT_TRUE(write_manifest(path, manifest));
  const auto unclipped = load_manifest(path);
  ASSERT_TRUE(unclipped.has_value());
  EXPECT_FALSE(unclipped->horizon_ns.has_value());

  // An older v1 manifest also carries n, pacing_ns and resend_ns lines,
  // unknown tags now, and a restart bit after each crash's stamp: all
  // skipped.
  {
    std::ofstream(path, std::ios::trunc)
        << "mmrfd-trace-manifest v1\nn 8\norigin_ns 5\npacing_ns 100\n"
           "resend_ns 500\nhorizon_ns 9\ncrash 7 1900000000 1\n"
           "crash 2 2500000000 0\ntrace 7 1 node7.g1.bin.trace\n";
  }
  const auto older = load_manifest(path);
  ASSERT_TRUE(older.has_value());
  EXPECT_EQ(older->origin_ns, 5u);
  EXPECT_EQ(older->horizon_ns, 9);
  ASSERT_EQ(older->crashes.size(), 2u);
  EXPECT_EQ(older->crashes[0].victim, 7u);
  EXPECT_EQ(older->crashes[0].at_ns, 1'900'000'000);
  EXPECT_EQ(older->crashes[1].victim, 2u);
  EXPECT_EQ(older->crashes[1].at_ns, 2'500'000'000);
  ASSERT_EQ(older->traces.size(), 1u);
  EXPECT_EQ(older->traces[0].node, 7u);
  EXPECT_EQ(older->traces[0].incarnation, 1u);
  EXPECT_EQ(older->traces[0].file, "node7.g1.bin.trace");

  EXPECT_FALSE(load_manifest(dir.path("missing.txt")).has_value());
}

TEST(TraceAssemblerDir, AssemblesFromManifestAndToleratesMissingDumps) {
  TempDir dir;
  FlightRecorder recorder(16, TraceClock{&fixed_clock, nullptr});
  recorder.record(TraceKind::kSuspectAdd, 1);
  ASSERT_TRUE(recorder.dump_binary_to_file(dir.path("node0.g0.bin.trace")));

  TraceManifest manifest;
  manifest.traces.push_back({0, 0, "node0.g0.bin.trace"});
  manifest.traces.push_back({1, 0, "node1.g0.bin.trace"});  // never written
  manifest.crashes.push_back({1, 1000});
  ASSERT_TRUE(write_manifest(dir.path(std::string(kTraceManifestName)),
                             manifest));

  const auto trace = assemble_from_dir(dir.path(""));
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->records, 1u);
  ASSERT_EQ(trace->crashes.size(), 1u);
  ASSERT_EQ(trace->crashes[0].observers.size(), 1u);
  EXPECT_EQ(trace->crashes[0].observers[0].observer, 0u);

  EXPECT_FALSE(assemble_from_dir(dir.path("nope")).has_value());
}

}  // namespace
}  // namespace mmrfd::obs
