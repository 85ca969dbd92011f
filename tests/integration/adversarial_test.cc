// Adversarial channels + self-stabilization sweeps.
//
// Every test here perturbs an execution beyond the paper's channel model —
// bounded reordering, asymmetric partitions, scheduled link flaps,
// duplication storms, transient state corruption — and then asserts the
// cluster *re-converges* to the detector's specification: every correct
// process eventually suspects exactly the crashed processes, within a
// bounded window after the perturbation ends. Each fault class runs under
// BOTH wire encodings (the paper's full encoding and the production delta
// encoding), because the resync path is where corruption bugs hide.
//
// Registered under the `adversarial` ctest label; CI additionally runs the
// label under ASan/UBSan.
#include <gtest/gtest.h>

#include <vector>

#include "core/properties.h"
#include "metrics/analysis.h"
#include "runtime/cluster.h"

namespace mmrfd::runtime {
namespace {

MmrClusterConfig base(std::uint32_t n, std::uint32_t f, std::uint64_t seed,
                      bool delta) {
  MmrClusterConfig c;
  c.n = n;
  c.f = f;
  c.seed = seed;
  c.delta_queries = delta;
  c.pacing = from_millis(100);
  c.mean_delay = from_millis(2);
  c.delay_preset = net::DelayPreset::kConstant;
  // Tightened from the production default so the watermark guard fires
  // several times inside a 45 s sweep (32 rounds at 100 ms pacing = 3.2 s).
  c.resync_interval = 32;
  return c;
}

/// Replays the run's suspicion transitions through the stabilization
/// checker. Mistake events are view-neutral (the suspicion interval they
/// close is reported via kCleared).
core::StabilizationVerdict stabilization(
    const MmrCluster& cluster, const std::vector<ProcessId>& crashed) {
  core::StabilizationChecker checker(cluster.n(), crashed);
  for (const auto& e : cluster.log().events()) {
    if (e.kind == metrics::SuspicionEventKind::kMistake) continue;
    checker.feed(e.when, e.observer, e.subject,
                 e.kind == metrics::SuspicionEventKind::kSuspected);
  }
  return checker.verdict();
}

void expect_converged(const core::StabilizationVerdict& v, TimePoint deadline,
                      const char* what) {
  EXPECT_TRUE(v.converged) << what << ": " << v.missing.size()
                           << " missing suspicions, "
                           << v.false_suspicions.size() << " false ones";
  EXPECT_LE(v.stabilized_at, deadline)
      << what << ": view still churning at "
      << static_cast<double>(v.stabilized_at.count()) / 1e9 << " s";
}

TEST(Adversarial, ReorderedChannelsReconverge) {
  // 25% of messages stretched by up to 30 ms (several pacing fractions of
  // out-of-order delivery) for the first 10 s, spanning a crash. Once the
  // channel calms down the views must settle on exactly the crashed set.
  for (const bool delta : {false, true}) {
    auto cfg = base(8, 2, 31, delta);
    cfg.faults.reorder_rate = 0.25;
    cfg.faults.reorder_window = from_millis(30);
    MmrCluster cluster(cfg);
    cluster.simulation().schedule_at(from_seconds(10), [&cluster] {
      cluster.network().set_reorder(0.0, Duration::zero());
    });
    CrashPlan plan;
    plan.entries.push_back({ProcessId{5}, from_seconds(3)});
    cluster.start(plan);
    cluster.run_for(from_seconds(30));
    EXPECT_GT(cluster.network().stats().messages_reordered, 100u);
    expect_converged(stabilization(cluster, {ProcessId{5}}),
                     from_seconds(25), delta ? "delta" : "full");
  }
}

TEST(Adversarial, AsymmetricPartitionHealsAndReconverges) {
  // One *directed* edge blocked: p1's messages to p2 vanish while the
  // reverse direction stays up — the asymmetric case a symmetric partition
  // model never exercises. p2 cannot respond to queries it never receives,
  // so p1 falsely suspects it; gossip + self-defence repair each episode.
  // After the heal at 8 s the views must settle exactly.
  for (const bool delta : {false, true}) {
    auto cfg = base(8, 2, 32, delta);
    cfg.faults.blocked_links.push_back({ProcessId{1}, ProcessId{2}});
    MmrCluster cluster(cfg);
    cluster.simulation().schedule_at(from_seconds(8), [&cluster] {
      cluster.network().heal_link(ProcessId{1}, ProcessId{2});
    });
    CrashPlan plan;
    plan.entries.push_back({ProcessId{6}, from_seconds(4)});
    cluster.start(plan);
    cluster.run_for(from_seconds(30));
    EXPECT_GT(cluster.network().stats().messages_dropped_partition, 10u);
    expect_converged(stabilization(cluster, {ProcessId{6}}),
                     from_seconds(25), delta ? "delta" : "full");
  }
}

TEST(Adversarial, LinkFlapsReconverge) {
  // Scheduled flaps: p3's edges to p0 and p1 (plus the reverse edge from
  // p0) go down during [3 s, 8 s). p0 and p1 falsely suspect p3 while its
  // responses to them vanish; p3's own rounds keep terminating through the
  // five remaining peers (the flap deliberately leaves quorum reachable —
  // with no retransmission layer, a simulated host whose *query* is dropped
  // stalls forever, which is the documented loss-breaks-liveness boundary,
  // not a convergence scenario). After the heal p3's self-defence must
  // clear the suspicions everywhere.
  for (const bool delta : {false, true}) {
    auto cfg = base(8, 2, 33, delta);
    cfg.faults.link_flaps.push_back(
        {ProcessId{3}, ProcessId{0}, from_seconds(3), from_seconds(8)});
    cfg.faults.link_flaps.push_back(
        {ProcessId{3}, ProcessId{1}, from_seconds(3), from_seconds(8)});
    cfg.faults.link_flaps.push_back(
        {ProcessId{0}, ProcessId{3}, from_seconds(3), from_seconds(8)});
    MmrCluster cluster(cfg);
    cluster.start();
    cluster.run_for(from_seconds(30));
    EXPECT_GT(cluster.network().stats().messages_dropped_partition, 50u);
    expect_converged(stabilization(cluster, {}), from_seconds(25),
                     delta ? "delta" : "full");
  }
}

TEST(Adversarial, DuplicationStormReconverges) {
  // Half of all messages delivered twice for the whole run. Dedup is the
  // quorum counter's job (a responder counts once); the views must converge
  // as if the channel were clean.
  for (const bool delta : {false, true}) {
    auto cfg = base(8, 2, 34, delta);
    cfg.faults.duplicate_rate = 0.5;
    MmrCluster cluster(cfg);
    CrashPlan plan;
    plan.entries.push_back({ProcessId{2}, from_seconds(3)});
    cluster.start(plan);
    cluster.run_for(from_seconds(25));
    EXPECT_GT(cluster.network().stats().messages_duplicated, 1000u);
    expect_converged(stabilization(cluster, {ProcessId{2}}),
                     from_seconds(20), delta ? "delta" : "full");
  }
}

TEST(Adversarial, TransientCorruptionReconverges) {
  // The self-stabilization core: two nodes have their entire protocol state
  // scrambled mid-run — suspicion/mistake sets replaced with garbage
  // (including self-suspicions), round counters shifted, the change journal
  // rebased arbitrarily, the delta watermarks overwritten and the give-up
  // streaks rewritten. The cluster must re-converge to exactly the crashed
  // set within a bounded window, in both encodings, for every corruption
  // seed.
  for (const bool delta : {false, true}) {
    for (const std::uint64_t corruption_seed : {11ull, 12ull, 13ull}) {
      auto cfg = base(8, 2, 35 + corruption_seed, delta);
      MmrCluster cluster(cfg);
      cluster.simulation().schedule_at(
          from_seconds(10), [&cluster, corruption_seed] {
            cluster.host(ProcessId{1})
                .detector()
                .inject_transient_corruption(corruption_seed);
            cluster.host(ProcessId{4})
                .detector()
                .inject_transient_corruption(corruption_seed + 1000);
          });
      CrashPlan plan;
      plan.entries.push_back({ProcessId{6}, from_seconds(2)});
      cluster.start(plan);
      cluster.run_for(from_seconds(45));
      // End-state check straight off the detectors (belt) ...
      for (std::uint32_t i = 0; i < 8; ++i) {
        if (i == 6) continue;
        const auto& d = cluster.host(ProcessId{i}).detector();
        EXPECT_TRUE(d.is_suspected(ProcessId{6}))
            << "observer " << i << " seed " << corruption_seed;
        for (std::uint32_t j = 0; j < 8; ++j) {
          if (j == 6 || j == i) continue;
          EXPECT_FALSE(d.is_suspected(ProcessId{j}))
              << "observer " << i << " falsely suspects " << j << " seed "
              << corruption_seed;
        }
      }
      // ... and the trace check (suspenders): converged, within 20 s of the
      // injection. The dominant repair term is the watermark resync guard
      // (resync_interval rounds = 3.2 s here); 20 s leaves room for several
      // suspicion/defence round trips on top.
      expect_converged(stabilization(cluster, {ProcessId{6}}),
                       from_seconds(30),
                       delta ? "delta" : "full");
    }
  }
}

TEST(Adversarial, CorruptionUnderChannelFaultsReconverges) {
  // Combined: state corruption lands while the channel itself is still
  // adversarial (reordering + duplication until 15 s). The repair machinery
  // must work through the noisy channel, not just after it.
  for (const bool delta : {false, true}) {
    auto cfg = base(8, 2, 36, delta);
    cfg.faults.reorder_rate = 0.2;
    cfg.faults.reorder_window = from_millis(25);
    cfg.faults.duplicate_rate = 0.3;
    MmrCluster cluster(cfg);
    cluster.simulation().schedule_at(from_seconds(10), [&cluster] {
      cluster.host(ProcessId{2}).detector().inject_transient_corruption(77);
    });
    cluster.simulation().schedule_at(from_seconds(15), [&cluster] {
      cluster.network().set_reorder(0.0, Duration::zero());
      cluster.network().set_duplicate_rate(0.0);
    });
    CrashPlan plan;
    plan.entries.push_back({ProcessId{7}, from_seconds(5)});
    cluster.start(plan);
    cluster.run_for(from_seconds(45));
    expect_converged(stabilization(cluster, {ProcessId{7}}),
                     from_seconds(35), delta ? "delta" : "full");
  }
}

TEST(Adversarial, PermanentAsymmetricPartitionStaysSafe) {
  // Negative-space documentation: a *permanent* one-way partition violates
  // the model's reliable-channel assumption, so exact convergence between
  // the partitioned pair is not promised (p1 re-suspects p2 each round, p2
  // keeps defending — a stable oscillation). What must survive anyway:
  // strong completeness for real crashes, and the suspected/mistake sets
  // staying mutually exclusive everywhere.
  auto cfg = base(8, 2, 37, true);
  cfg.faults.blocked_links.push_back({ProcessId{1}, ProcessId{2}});
  MmrCluster cluster(cfg);
  CrashPlan plan;
  plan.entries.push_back({ProcessId{0}, from_seconds(3)});
  cluster.start(plan);
  cluster.run_for(from_seconds(30));
  metrics::Analysis analysis(cluster.log(), 8, from_seconds(30));
  EXPECT_TRUE(analysis.strong_completeness());
  for (std::uint32_t i = 1; i < 8; ++i) {
    const auto& d = cluster.host(ProcessId{i}).detector();
    for (const auto listed = d.full_query();
         const auto& e : listed.suspected()) {
      EXPECT_FALSE(d.mistake_tag(e.id).has_value()) << "observer " << i;
    }
  }
}

TEST(Adversarial, GiveupPolicyKeepsPropertiesAndCutsQueries) {
  // The crashed-peer give-up policy must not dent completeness or accuracy,
  // and must measurably elide queries to long-dead peers.
  for (const bool delta : {false, true}) {
    auto cfg = base(8, 2, 38, delta);
    cfg.giveup_rounds = 4;
    MmrCluster cluster(cfg);
    CrashPlan plan;
    plan.entries.push_back({ProcessId{3}, from_seconds(2)});
    cluster.start(plan);
    cluster.run_for(from_seconds(30));
    expect_converged(stabilization(cluster, {ProcessId{3}}),
                     from_seconds(25), delta ? "delta" : "full");
    std::uint64_t skipped = 0;
    for (std::uint32_t i = 0; i < 8; ++i) {
      if (i == 3) continue;
      skipped += cluster.host(ProcessId{i}).detector().queries_skipped();
    }
    // ~280 rounds per host after the crash; with K=4 roughly 3/4 of the
    // queries to the dead peer are elided on each of 7 hosts.
    EXPECT_GT(skipped, 500u);
  }
}

}  // namespace
}  // namespace mmrfd::runtime
