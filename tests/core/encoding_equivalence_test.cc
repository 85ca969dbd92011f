// Differential protocol-equivalence harness: delta-encoded queries vs the
// canonical full encoding.
//
// The delta wire format (per-peer watermarks + interned epochs) is a pure
// encoding optimisation — it must never change what the protocol *does*.
// This harness enforces that in the strongest way we can afford: a thousand
// randomized fixed-seed schedules (random cluster shapes, crash plans,
// heavy-tailed delays, mid-run delay spikes, duplicated and lost messages)
// each run through TWO clusters that differ only in the encoding flag, with
// every host's suspected set, mistake set, round tag and query sequence
// diffed at every query round, and the complete mistake/suspicion
// transition logs, message counters and event counts diffed at the end.
// Any divergence — one entry, one tag, one event — fails with the schedule
// seed so the exact run can be replayed.
//
// In the spirit of exhaustive state-space checking of replication protocols
// (cf. Boucheneb & Imine on optimistic-replication model checking), the
// schedules are deterministic functions of their seed: a failure here is a
// repro, not a flake.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <variant>

#include "common/rng.h"
#include "metrics/event_log.h"
#include "runtime/cluster.h"
#include "runtime/crash_plan.h"
#include "transport/codec.h"

namespace mmrfd::runtime {
namespace {

struct Schedule {
  std::uint64_t seed{0};
  std::uint32_t n{0};
  std::uint32_t f{0};
  std::size_t crashes{0};
  double pacing_jitter{0.0};
  net::DelayPreset preset{net::DelayPreset::kExponential};
  double duplicate_rate{0.0};
  double loss_rate{0.0};
  bool spike{false};

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << "schedule seed=" << seed << " n=" << n << " f=" << f
       << " crashes=" << crashes << " jitter=" << pacing_jitter
       << " preset=" << static_cast<int>(preset) << " dup=" << duplicate_rate
       << " loss=" << loss_rate << " spike=" << spike;
    return os.str();
  }
};

Schedule make_schedule(std::uint64_t seed) {
  Xoshiro256 rng(derive_seed(seed, "equivalence.schedule"));
  Schedule s;
  s.seed = seed;
  s.n = static_cast<std::uint32_t>(3 + rng.next_below(7));  // 3..9
  s.f = static_cast<std::uint32_t>(1 + rng.next_below(s.n - 1));
  s.crashes = rng.next_below(std::min<std::uint64_t>(s.f, 3) + 1);
  s.pacing_jitter = rng.bernoulli(0.5) ? 0.2 : 0.0;
  s.preset = rng.bernoulli(0.3) ? net::DelayPreset::kPareto
                                : net::DelayPreset::kExponential;
  s.duplicate_rate = rng.bernoulli(0.3) ? 0.05 : 0.0;
  s.loss_rate = rng.bernoulli(0.2) ? 0.05 : 0.0;
  s.spike = rng.bernoulli(0.3);
  return s;
}

constexpr double kHorizonSec = 2.5;
constexpr double kPacingMs = 50.0;

MmrCluster make_cluster(const Schedule& s, bool delta) {
  MmrClusterConfig cfg;
  cfg.n = s.n;
  cfg.f = s.f;
  cfg.seed = s.seed;
  cfg.pacing = from_millis(kPacingMs);
  cfg.pacing_jitter = s.pacing_jitter;
  cfg.mean_delay = from_millis(1);
  cfg.delay_preset = s.preset;
  cfg.delta_queries = delta;
  if (s.spike) {
    SpikeSpec spike;
    spike.start = from_seconds(kHorizonSec * 0.3);
    spike.end = from_seconds(kHorizonSec * 0.5);
    spike.factor = 200.0;  // pushes 1 ms delays past the 50 ms pacing
    spike.affected = {ProcessId{s.n - 1}};
    cfg.spike = spike;
  }
  return MmrCluster(cfg);
}

/// Diffs per-host protocol state. `where` names the checkpoint.
void expect_same_state(const MmrCluster& full, const MmrCluster& delta,
                       const Schedule& s, const std::string& where) {
  for (std::uint32_t i = 0; i < s.n; ++i) {
    const auto& df = full.host(ProcessId{i}).detector();
    const auto& dd = delta.host(ProcessId{i}).detector();
    ASSERT_TRUE(std::ranges::equal(df.full_query().suspected(),
                                   dd.full_query().suspected()))
        << s.describe() << " host " << i << " suspected sets diverged "
        << where;
    ASSERT_TRUE(std::ranges::equal(df.full_query().mistakes(),
                                   dd.full_query().mistakes()))
        << s.describe() << " host " << i << " mistake sets diverged "
        << where;
    ASSERT_EQ(df.counter(), dd.counter())
        << s.describe() << " host " << i << " round tags diverged " << where;
    ASSERT_EQ(df.query_seq(), dd.query_seq())
        << s.describe() << " host " << i << " query seq diverged " << where;
    ASSERT_EQ(df.rounds_completed(), dd.rounds_completed())
        << s.describe() << " host " << i << " rounds diverged " << where;
  }
}

/// Diffs the complete suspicion/mistake transition logs entry by entry.
void expect_same_log(const MmrCluster& full, const MmrCluster& delta,
                     const Schedule& s) {
  const auto& ef = full.log().events();
  const auto& ed = delta.log().events();
  ASSERT_EQ(ef.size(), ed.size()) << s.describe() << " log volume diverged";
  for (std::size_t k = 0; k < ef.size(); ++k) {
    ASSERT_TRUE(ef[k].when == ed[k].when &&
                ef[k].observer == ed[k].observer &&
                ef[k].subject == ed[k].subject &&
                ef[k].kind == ed[k].kind && ef[k].tag == ed[k].tag)
        << s.describe() << " transition log diverged at entry " << k;
  }
}

void run_schedule(std::uint64_t seed) {
  const Schedule s = make_schedule(seed);
  MmrCluster full = make_cluster(s, /*delta=*/false);
  MmrCluster delta = make_cluster(s, /*delta=*/true);
  for (MmrCluster* c : {&full, &delta}) {
    if (s.duplicate_rate > 0) c->network().set_duplicate_rate(s.duplicate_rate);
    if (s.loss_rate > 0) c->network().set_loss_rate(s.loss_rate);
    c->network().set_size_fn([](const MmrMessage& m) {
      return std::visit(
          [](const auto& msg) { return transport::wire_size(msg); }, m);
    });
  }
  const auto horizon = from_seconds(kHorizonSec);
  const auto plan = CrashPlan::uniform(
      s.crashes, s.n, from_seconds(kHorizonSec * 0.25),
      from_seconds(kHorizonSec * 0.7), s.seed);
  full.start(plan);
  delta.start(plan);

  // Lockstep: one checkpoint per pacing period ("at every query round").
  const auto step = from_millis(kPacingMs);
  for (TimePoint t = step; t <= horizon; t += step) {
    full.run_until(t);
    delta.run_until(t);
    expect_same_state(full, delta, s,
                      "at t=" + std::to_string(to_seconds(t)) + "s");
    if (::testing::Test::HasFatalFailure()) return;
  }

  expect_same_log(full, delta, s);
  ASSERT_EQ(full.log().crashes().size(), delta.log().crashes().size())
      << s.describe();
  const auto& sf = full.network().stats();
  const auto& sd = delta.network().stats();
  ASSERT_EQ(sf.messages_sent, sd.messages_sent) << s.describe();
  ASSERT_EQ(sf.messages_delivered, sd.messages_delivered) << s.describe();
  ASSERT_EQ(sf.messages_dropped_loss, sd.messages_dropped_loss)
      << s.describe();
  ASSERT_EQ(sf.messages_duplicated, sd.messages_duplicated) << s.describe();
  ASSERT_EQ(full.simulation().events_fired(), delta.simulation().events_fired())
      << s.describe();
  // The optimisation must actually optimise — modulo the delta header: at
  // toy scale (sets of 0-2 entries) the epoch/base/ack varints can outweigh
  // the few omitted entries, so allow that bounded overhead. Real savings
  // are asserted at protocol scale in DeltaSavesBytesOnAStableCluster and
  // measured in bench/exp_scale.
  ASSERT_LE(sd.bytes_sent, sf.bytes_sent + sf.bytes_sent / 10 + 4096)
      << s.describe();
}

TEST(EncodingEquivalence, ThousandRandomSchedulesBitIdentical) {
  // >= 1000 randomized fixed-seed schedules. Shard-friendly: any single
  // seed can be replayed in isolation via run_schedule(seed).
  std::uint64_t total_seeds = 1000;
  for (std::uint64_t seed = 1; seed <= total_seeds; ++seed) {
    run_schedule(seed);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "equivalence divergence at schedule seed " << seed;
    }
  }
}

TEST(EncodingEquivalence, DeltaSavesBytesOnAStableCluster) {
  // Protocol scale: once the crashed processes' suspicions stabilize, full
  // queries repeat O(f) entries forever while deltas are near-empty.
  Schedule s;
  s.seed = 4242;
  s.n = 40;
  s.f = 10;
  s.crashes = 8;
  MmrCluster full = make_cluster(s, false);
  MmrCluster delta = make_cluster(s, true);
  for (MmrCluster* c : {&full, &delta}) {
    c->network().set_size_fn([](const MmrMessage& m) {
      return std::visit(
          [](const auto& msg) { return transport::wire_size(msg); }, m);
    });
  }
  const auto plan = CrashPlan::uniform(s.crashes, s.n, from_millis(200),
                                       from_millis(800), s.seed);
  full.start(plan);
  delta.start(plan);
  full.run_for(from_seconds(10));
  delta.run_for(from_seconds(10));
  expect_same_state(full, delta, s, "after 10s");
  // Stable run: the delta encoding should cut bytes by a large factor, not
  // a rounding error (assert a conservative 1.5x; exp_scale shows the
  // asymptotic win at n=1000).
  EXPECT_LT(static_cast<double>(delta.network().stats().bytes_sent),
            static_cast<double>(full.network().stats().bytes_sent) / 1.5);
}

}  // namespace
}  // namespace mmrfd::runtime
