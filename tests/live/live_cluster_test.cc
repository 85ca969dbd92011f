// Live-cluster integration: a supervisor-managed cluster of REAL mmrfd-node
// processes over loopback UDP, with SIGKILL crash injection.
//
// These tests fork/exec the mmrfd-node binary (discovered next to this test
// binary in the build tree, or via $MMRFD_NODE_BIN) — they are the proof
// that the simulator-verified protocol, the delta codec and the need_full
// resync work over a kernel network stack with real process crashes.
// Registered RUN_SERIAL with generous deadlines: wall-clock pacing on a
// loaded CI machine is jittery, and the assertions below only depend on
// eventual convergence, never on tight timing.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "live/report.h"
#include "live/supervisor.h"
#include "metrics/analysis.h"
#include "metrics/event_log.h"
#include "sim/simulation.h"

namespace mmrfd::live {
namespace {

std::string fresh_report_dir(const std::string& tag) {
  return "live_cluster_test." + tag + "." + std::to_string(::getpid());
}

/// Extracts the {"name":value,...} object after `"c":` in one telemetry
/// line. Tiny hand-rolled parser: the emitter writes plain [a-z._] names and
/// decimal values, nothing else.
std::map<std::string, std::uint64_t> parse_counters(const std::string& line) {
  std::map<std::string, std::uint64_t> out;
  const auto c_at = line.find("\"c\":{");
  if (c_at == std::string::npos) return out;
  std::size_t pos = c_at + 5;
  while (pos < line.size() && line[pos] != '}') {
    const auto name_start = line.find('"', pos);
    if (name_start == std::string::npos) break;
    const auto name_end = line.find('"', name_start + 1);
    if (name_end == std::string::npos) break;
    const auto colon = line.find(':', name_end);
    if (colon == std::string::npos) break;
    std::size_t value_end = colon + 1;
    while (value_end < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[value_end]))) {
      ++value_end;
    }
    out[line.substr(name_start + 1, name_end - name_start - 1)] =
        std::stoull(line.substr(colon + 1, value_end - colon - 1));
    pos = value_end;
    if (pos < line.size() && line[pos] == ',') ++pos;
  }
  return out;
}

/// Binds 127.0.0.1:port over UDP, as a node does; the socket, or -1.
int bind_udp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// True once nothing holds the port: a node that bound it has exited.
bool port_free(std::uint16_t port) {
  const int fd = bind_udp(port);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

/// The running mmrfd-node processes whose argv names
/// `--base-port=<base_port>` (an exited one has no argv left to read).
std::vector<pid_t> nodes_of(std::uint16_t base_port) {
  const std::string flag = "--base-port=" + std::to_string(base_port);
  std::vector<pid_t> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc", ec)) {
    const std::string pid = entry.path().filename().string();
    if (pid.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream is(entry.path() / "cmdline");
    std::string arg;
    bool node = false, ours = false;
    while (std::getline(is, arg, '\0')) {
      node = node || arg.find("mmrfd-node") != std::string::npos;
      ours = ours || arg == flag;
    }
    if (node && ours) out.push_back(std::stoi(pid));
  }
  return out;
}

/// The cleanup for a test whose nodes outlived the process that owned them.
void kill_nodes_of(std::uint16_t base_port) {
  for (const pid_t pid : nodes_of(base_port)) ::kill(pid, SIGKILL);
}

/// Forks and execs one mmrfd-node that makes rounds alone: with n=2, f=1
/// the quorum is 1, so its own response closes every round although the
/// peer never exists. `flags` follow the fixed ones; returns the pid.
pid_t exec_lone_node(const std::vector<std::string>& flags) {
  const std::string binary = default_node_binary();
  std::vector<std::string> args = {binary, "--self=0", "--n=2", "--f=1",
                                   "--pacing-ms=20"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(binary.c_str(), argv.data());
    _exit(127);  // exec failed
  }
  return pid;
}

const NodeReport* final_report(const LiveRunResult& result, std::uint32_t id) {
  for (const LiveNodeOutcome& node : result.nodes) {
    if (node.id.value == id) {
      return node.reports.empty() ? nullptr : &node.reports.back();
    }
  }
  return nullptr;
}

TEST(LiveCluster, KillOneNodeAllSurvivorsConverge) {
  constexpr std::uint32_t kN = 8;
  constexpr std::uint32_t kVictim = 5;
  SupervisorConfig cfg;
  cfg.n = kN;
  cfg.f = 2;
  cfg.base_port = 46000;
  cfg.pacing = from_millis(50);
  cfg.flush = from_millis(100);
  cfg.delta = true;
  cfg.report_dir = fresh_report_dir("kill");

  Supervisor supervisor(cfg);
  // Two seconds of steady state before the kill (slow-starting nodes on a
  // loaded machine must be in the round-trotting regime first), five after
  // (dozens of 50 ms rounds — detection needs one).
  const std::vector<CrashEvent> schedule = {
      {ProcessId{kVictim}, from_seconds(2.0), std::nullopt}};
  // Resident pages of the Supervisor's process, which each node holds
  // between fork and exec: its peak RSS must not count them.
  constexpr std::size_t kBallast = std::size_t{128} << 20;
  const std::vector<char> ballast(kBallast, 1);
  const LiveRunResult result = supervisor.run(schedule, from_seconds(7));
  EXPECT_GT(result.node_max_rss_kb, 0u);
  EXPECT_LT(result.node_max_rss_kb, kBallast / 1024 / 2);
  EXPECT_EQ(ballast.back(), 1);

  // Clean orchestration: one planned kill, nothing else died, and every
  // graceful node flushed a readable report.
  ASSERT_EQ(result.crashes.size(), 1u);
  EXPECT_EQ(result.crashes[0].victim, ProcessId{kVictim});
  EXPECT_EQ(result.unexpected_exits, 0u);
  EXPECT_EQ(result.missing_reports, 0u);

  // Convergence: all 7 survivors permanently suspected the victim, with a
  // positive wall-clock latency (strong completeness over real sockets).
  EXPECT_TRUE(result.strong_completeness);
  ASSERT_EQ(result.detection_latencies.count(), kN - 1);
  EXPECT_GT(result.detection_latencies.min(), 0.0);
  EXPECT_LT(result.detection_latencies.max(), 7.0);

  // Per-survivor reports: the victim is in the final suspected set, the
  // transition history replays to exactly that set, the delta wire path
  // actually ran, and the kernel path was clean.
  for (std::uint32_t i = 0; i < kN; ++i) {
    if (i == kVictim) continue;
    const NodeReport* r = final_report(result, i);
    ASSERT_NE(r, nullptr) << "survivor " << i << " has no report";
    EXPECT_NE(std::find(r->suspected.begin(), r->suspected.end(), kVictim),
              r->suspected.end())
        << "survivor " << i << " does not suspect the victim";
    std::set<std::uint32_t> replayed;
    for (const ReportEvent& ev : r->events) {
      if (ev.kind == 0) {
        replayed.insert(ev.subject);
      } else {
        replayed.erase(ev.subject);
      }
    }
    EXPECT_EQ(std::vector<std::uint32_t>(replayed.begin(), replayed.end()),
              r->suspected)
        << "survivor " << i << "'s history does not replay to its final set";
    EXPECT_GT(r->rounds, 0u);
    EXPECT_EQ(r->metrics.counter_value("udp.truncated"), 0u);
    EXPECT_EQ(r->metrics.counter_value("codec.malformed"), 0u);
  }
  EXPECT_GT(result.metrics.counter_value("rt.delta_queries_sent"), 0u);
  EXPECT_GT(result.metrics.counter_value("rt.query_bytes_sent"), 0u);
  EXPECT_GT(result.rounds, 0u);

  std::filesystem::remove_all(cfg.report_dir);
}

TEST(LiveCluster, RestartedNodeResyncsViaNeedFull) {
  // Two kills: the first (permanent) churns every survivor's state so their
  // per-peer watermarks move off epoch 0; the second victim is restarted
  // with fresh state, so the survivors' delta queries name a base epoch the
  // new process never acknowledged — the need_full resync must fire over
  // real sockets, after which the survivors clear the restarted node.
  constexpr std::uint32_t kN = 6;
  constexpr std::uint32_t kDeadVictim = 4;
  constexpr std::uint32_t kRestartVictim = 5;
  SupervisorConfig cfg;
  cfg.n = kN;
  cfg.f = 2;
  cfg.base_port = 46500;
  cfg.pacing = from_millis(50);
  cfg.flush = from_millis(100);
  cfg.delta = true;
  cfg.report_dir = fresh_report_dir("restart");

  Supervisor supervisor(cfg);
  const std::vector<CrashEvent> schedule = {
      {ProcessId{kDeadVictim}, from_seconds(1.5), std::nullopt},
      {ProcessId{kRestartVictim}, from_seconds(3.0), from_seconds(4.5)},
  };
  const LiveRunResult result = supervisor.run(schedule, from_seconds(10));

  ASSERT_EQ(result.crashes.size(), 2u);
  EXPECT_EQ(result.unexpected_exits, 0u);
  const auto restarted =
      std::find_if(result.crashes.begin(), result.crashes.end(),
                   [](const LiveCrash& c) { return c.restarted; });
  ASSERT_NE(restarted, result.crashes.end());
  EXPECT_EQ(restarted->victim, ProcessId{kRestartVictim});

  // The resync actually happened: some survivor received a need_full ack
  // (and the restarted incarnation sent one).
  EXPECT_GT(result.metrics.counter_value("rt.need_full_received"), 0u);
  EXPECT_GT(result.metrics.counter_value("rt.need_full_sent"), 0u);

  // After the resync the cluster re-converges: every survivor's final
  // suspected set contains the dead victim but NOT the restarted one, and
  // the restarted incarnation itself is live, round-making and suspects the
  // dead victim too.
  for (const std::uint32_t i : {0u, 1u, 2u, 3u}) {
    const NodeReport* r = final_report(result, i);
    ASSERT_NE(r, nullptr);
    EXPECT_NE(
        std::find(r->suspected.begin(), r->suspected.end(), kDeadVictim),
        r->suspected.end())
        << "survivor " << i << " does not suspect the dead victim";
    EXPECT_EQ(
        std::find(r->suspected.begin(), r->suspected.end(), kRestartVictim),
        r->suspected.end())
        << "survivor " << i << " still suspects the restarted node";
  }
  const NodeReport* rr = final_report(result, kRestartVictim);
  ASSERT_NE(rr, nullptr);
  EXPECT_GT(rr->rounds, 0u);
  EXPECT_NE(
      std::find(rr->suspected.begin(), rr->suspected.end(), kDeadVictim),
      rr->suspected.end());

  std::filesystem::remove_all(cfg.report_dir);
}

TEST(LiveCluster, CorruptedDatagramsAreRejectedNotFatal) {
  // Adversarial channel on the real kernel path: every node's outgoing
  // datagrams are randomly truncated or bit-flipped before the sendto().
  // Damaged datagrams must die in the codec (malformed counter), never in
  // the process (no unexpected exits, no sanitizer trips under the CI
  // ASan/UBSan job), and the detector must still converge — the damaged
  // queries are equivalent to loss, which the resend path absorbs.
  constexpr std::uint32_t kN = 6;
  constexpr std::uint32_t kVictim = 3;
  SupervisorConfig cfg;
  cfg.n = kN;
  cfg.f = 2;
  cfg.base_port = 47000;
  cfg.pacing = from_millis(50);
  cfg.flush = from_millis(100);
  cfg.delta = true;
  cfg.fault_truncate = 0.03;
  cfg.fault_corrupt = 0.01;
  cfg.fault_seed = 2026;
  cfg.report_dir = fresh_report_dir("corrupt");

  Supervisor supervisor(cfg);
  const std::vector<CrashEvent> schedule = {
      {ProcessId{kVictim}, from_seconds(2.0), std::nullopt}};
  const LiveRunResult result = supervisor.run(schedule, from_seconds(8));

  // No crash: the only dead process is the planned SIGKILL victim.
  ASSERT_EQ(result.crashes.size(), 1u);
  EXPECT_EQ(result.unexpected_exits, 0u);
  EXPECT_EQ(result.missing_reports, 0u);

  // Damaged datagrams actually reached the decoders and were rejected.
  EXPECT_GT(result.malformed, 0u);

  // Properties hold through the noise: every survivor converged on the
  // victim and kept making rounds.
  EXPECT_TRUE(result.strong_completeness);
  for (std::uint32_t i = 0; i < kN; ++i) {
    if (i == kVictim) continue;
    const NodeReport* r = final_report(result, i);
    ASSERT_NE(r, nullptr) << "survivor " << i << " has no report";
    EXPECT_GT(r->rounds, 0u);
    EXPECT_NE(std::find(r->suspected.begin(), r->suspected.end(), kVictim),
              r->suspected.end())
        << "survivor " << i << " does not suspect the victim";
  }

  std::filesystem::remove_all(cfg.report_dir);
}

TEST(LiveCluster, LossyLinksWithoutCrashesStayAccurate) {
  // Loss without crashes: every node drops 2% of its outgoing datagrams
  // and nobody dies, so every suspicion is false. A datagram lost in a
  // round that still reaches its quorum is re-sent by the late wave in the
  // pause before it costs a suspicion. Without that wave this cluster
  // logged ~1.4 false suspicions per round (gossip spreads each one to the
  // other observers); with it only a doubly lost exchange still costs one,
  // ~0.05-0.1 per round.
  constexpr std::uint32_t kN = 8;
  SupervisorConfig cfg;
  cfg.n = kN;
  cfg.f = 2;
  cfg.base_port = 47500;
  cfg.pacing = from_millis(50);
  cfg.flush = from_millis(100);
  cfg.delta = true;
  cfg.fault_drop = 0.02;
  cfg.fault_seed = 77;
  cfg.report_dir = fresh_report_dir("lossy");

  Supervisor supervisor(cfg);
  const LiveRunResult result = supervisor.run({}, from_seconds(6));
  EXPECT_EQ(result.unexpected_exits, 0u);
  EXPECT_EQ(result.missing_reports, 0u);
  EXPECT_GT(result.metrics.counter_value("fault.dropped"), 0u);
  EXPECT_GT(result.rounds, kN * 40u);
  EXPECT_LE(result.false_suspicions * 4, result.rounds)
      << result.false_suspicions << " false suspicions over "
      << result.rounds << " rounds";

  std::filesystem::remove_all(cfg.report_dir);
}

TEST(LiveCluster, GiveupPolicyCutsFullQueriesAtScale) {
  // The give-up policy's reason to exist: at n=64 with several dead peers,
  // every query to a dead peer degrades to the full-encoding fallback —
  // their journal ack stops advancing while the survivors' journals keep
  // churning, so the stale ack falls out of the replay window — and every
  // resend interval used to re-send them another full query on top. The
  // drop rate below supplies that churn (a perfectly quiet cluster freezes
  // its journal after the kill and keeps covering the victims' last ack,
  // which no real deployment does). Two identical runs — give-up on vs
  // off — must show a large drop in the full queries the survivors send
  // after the kills, with strong completeness intact on the policy run
  // (the 1/K probe keeps eventual accuracy, the cap keeps quorum
  // reachable).
  constexpr std::uint32_t kN = 64;
  constexpr std::uint32_t kSurvivors = 58;
  const std::vector<CrashEvent> schedule = {
      {ProcessId{58}, from_seconds(2.0), std::nullopt},
      {ProcessId{59}, from_seconds(2.0), std::nullopt},
      {ProcessId{60}, from_seconds(2.0), std::nullopt},
      {ProcessId{61}, from_seconds(2.2), std::nullopt},
      {ProcessId{62}, from_seconds(2.2), std::nullopt},
      {ProcessId{63}, from_seconds(2.2), std::nullopt},
  };
  // The last kill plus one report flush: every report a telemetry sample
  // reads from here on was written after every kill.
  constexpr std::uint64_t kAfterKillsMs = 2200 + 250;
  struct Run {
    LiveRunResult result;
    std::uint64_t full_after_kills{0};
  };
  const auto run_once = [&](std::uint32_t giveup, std::uint16_t base_port,
                            const std::string& tag) {
    SupervisorConfig cfg;
    cfg.n = kN;
    cfg.f = 8;
    cfg.base_port = base_port;
    cfg.pacing = from_millis(50);
    cfg.resend = from_millis(100);  // recover lost responses quickly
    cfg.flush = from_millis(250);
    cfg.delta = true;
    cfg.giveup_rounds = giveup;
    // Low enough that quorum is usually reached without a resend wave
    // (waves full-refresh silent LIVE peers identically in both runs and
    // would drown the dead-peer signal), high enough for steady journal
    // churn that pushes the victims' stale acks out of the replay window.
    cfg.fault_drop = 0.01;
    cfg.fault_seed = 404;
    cfg.report_dir = fresh_report_dir(tag);
    Supervisor supervisor(cfg);
    Run run{supervisor.run(schedule, from_seconds(9))};
    // Each survivor's final count minus its count in the first telemetry
    // sample past kAfterKillsMs. The costs both runs share stay out: until
    // the first kill the cluster's state sits at epoch 0, so every query is
    // full, and the periodic resync and the late wave go to live peers.
    std::map<std::uint32_t, std::uint64_t> at_kills;
    std::ifstream is(cfg.report_dir + "/telemetry.jsonl");
    std::string line;
    while (std::getline(is, line)) {
      if (line.find("\"final\":false") == std::string::npos) continue;
      const auto t_ms = std::stoull(line.substr(line.find("\"t_ms\":") + 7));
      const auto node = static_cast<std::uint32_t>(
          std::stoul(line.substr(line.find("\"node\":") + 7)));
      if (t_ms < kAfterKillsMs || node >= kSurvivors) continue;
      at_kills.try_emplace(node,
                           parse_counters(line)["rt.full_queries_sent"]);
    }
    for (std::uint32_t id = 0; id < kSurvivors; ++id) {
      const NodeReport* r = final_report(run.result, id);
      if (r == nullptr || !at_kills.contains(id)) {
        ADD_FAILURE() << tag << ": no telemetry for node " << id;
        continue;
      }
      run.full_after_kills +=
          r->metrics.counter_value("rt.full_queries_sent") - at_kills[id];
    }
    std::filesystem::remove_all(cfg.report_dir);
    return run;
  };

  const Run with_policy = run_once(8, 48000, "giveup_on");
  const Run without_policy = run_once(0, 48100, "giveup_off");

  ASSERT_EQ(with_policy.result.crashes.size(), 6u);
  EXPECT_EQ(with_policy.result.unexpected_exits, 0u);
  EXPECT_TRUE(with_policy.result.strong_completeness);

  ASSERT_EQ(without_policy.result.crashes.size(), 6u);
  EXPECT_EQ(without_policy.result.unexpected_exits, 0u);

  // The headline: skipping settled-dead peers (and not resending to them)
  // must cut the full-query volume hard. The 2/3 bound is deliberately
  // loose — six runs read 0.39-0.44: 7/8 of dead-peer queries skipped plus
  // all their resends, while the resyncs and late waves to live peers stay
  // — so CI jitter in round counts cannot flake it.
  const std::uint64_t full_on = with_policy.full_after_kills;
  const std::uint64_t full_off = without_policy.full_after_kills;
  EXPECT_GT(full_off, 0u);
  EXPECT_LT(full_on, full_off * 2 / 3)
      << "give-up on: " << full_on << " give-up off: " << full_off;
}

TEST(LiveCluster, TelemetrySeriesSumsToRollup) {
  // The observability acceptance check: the supervisor's telemetry.jsonl
  // time series must be internally consistent — the end-of-run rollup line
  // is EXACTLY the per-counter sum of the per-node final lines, and the
  // in-memory LiveRunResult.metrics is the same merge of the harvested
  // report snapshots.
  constexpr std::uint32_t kN = 5;
  SupervisorConfig cfg;
  cfg.n = kN;
  cfg.f = 1;
  cfg.base_port = 48300;
  cfg.pacing = from_millis(50);
  cfg.flush = from_millis(100);
  cfg.telemetry = from_millis(250);
  cfg.delta = true;
  cfg.report_dir = fresh_report_dir("telemetry");

  Supervisor supervisor(cfg);
  const LiveRunResult result = supervisor.run({}, from_seconds(4));
  EXPECT_EQ(result.unexpected_exits, 0u);
  EXPECT_EQ(result.missing_reports, 0u);

  // In-memory consistency: the result's merged registry equals re-merging
  // every harvested report's snapshot, and the headline counters moved.
  obs::RegistrySnapshot remerged;
  for (const LiveNodeOutcome& node : result.nodes) {
    for (const NodeReport& r : node.reports) remerged.merge(r.metrics);
  }
  EXPECT_EQ(result.metrics, remerged);
  EXPECT_GT(result.metrics.counter_value("rt.rounds"), 0u);
  EXPECT_EQ(result.metrics.counter_value("rt.rounds"), result.rounds);
  ASSERT_NE(result.metrics.find_histogram("rt.round_rtt_ns"), nullptr);
  EXPECT_GT(result.metrics.find_histogram("rt.round_rtt_ns")->count, 0u);

  // Wire accounting, by instrument name: every datagram on the socket is
  // one encoded protocol message, byte for byte. No layer adds framing or
  // acks; a send the kernel refused counts at the codec but not at the
  // socket.
  const obs::RegistrySnapshot& m = result.metrics;
  EXPECT_GT(m.counter_value("udp.datagrams_sent"), 0u);
  EXPECT_LE(m.counter_value("udp.datagrams_sent"),
            m.counter_value("rt.full_queries_sent") +
                m.counter_value("rt.delta_queries_sent") +
                m.counter_value("rt.responses_sent"));
  EXPECT_GT(m.counter_value("udp.bytes_sent"), 0u);
  EXPECT_LE(m.counter_value("udp.bytes_sent"),
            m.counter_value("rt.query_bytes_sent") +
                m.counter_value("rt.response_bytes_sent"));

  // File-side consistency: sum the final lines, compare to the rollup.
  std::ifstream is(cfg.report_dir + "/telemetry.jsonl");
  ASSERT_TRUE(is.good()) << "telemetry.jsonl was not written";
  std::map<std::string, std::uint64_t> final_sum;
  std::map<std::string, std::uint64_t> rollup;
  std::size_t final_lines = 0;
  std::size_t series_lines = 0;
  bool saw_rollup = false;
  std::string line;
  while (std::getline(is, line)) {
    if (line.find("\"rollup\":true") != std::string::npos) {
      rollup = parse_counters(line);
      saw_rollup = true;
    } else if (line.find("\"final\":true") != std::string::npos) {
      ++final_lines;
      for (const auto& [name, value] : parse_counters(line)) {
        final_sum[name] += value;
      }
    } else {
      ++series_lines;
    }
  }
  ASSERT_TRUE(saw_rollup);
  EXPECT_EQ(final_lines, kN);  // no crashes: one final line per node
  EXPECT_GT(series_lines, 0u);  // periodic sampling actually ran
  EXPECT_EQ(final_sum, rollup);
  // The four totals LiveRunResult keeps are the rollup's instruments.
  const std::pair<const char*, std::uint64_t> kept[] = {
      {"rt.rounds", result.rounds},
      {"codec.malformed", result.malformed},
      {"udp.datagrams_sent", result.datagrams_sent},
      {"udp.bytes_sent", result.wire_bytes_sent}};
  for (const auto& [name, total] : kept) {
    ASSERT_TRUE(rollup.contains(name)) << name;
    EXPECT_EQ(rollup[name], total) << name;
  }

  std::filesystem::remove_all(cfg.report_dir);
}

TEST(LiveCluster, SigkillAtAnyInstantLeavesACompleteSnapshot) {
  // The crash model of the report slots on a real process: a node writing a
  // snapshot every millisecond dies by SIGKILL at fixed-seed instants,
  // wherever they fall among its writes (a kill that tears a slot is
  // report_test's case, made exact there). After each kill the reader must
  // still find a
  // complete snapshot that had counted a round, and a reader polling the
  // running node must never see its snapshot number, rounds or snapshot
  // stamp go backwards. One node makes rounds alone (exec_lone_node). Each
  // incarnation gets its own path, as the Supervisor's do.
  const std::string dir = fresh_report_dir("sigkill");
  std::filesystem::create_directories(dir);
  Xoshiro256 rng(2003);
  constexpr int kKills = 12;
  for (int kill = 0; kill < kKills; ++kill) {
    const std::string report = dir + "/node0.g" + std::to_string(kill) + ".bin";
    const pid_t pid = exec_lone_node({"--base-port=48700", "--flush-ms=1",
                                      "--run-s=60", "--report=" + report});
    ASSERT_GE(pid, 0);
    // Reaps the node on every path out of this iteration, failures included.
    struct Reaper {
      pid_t pid;
      ~Reaper() {
        if (pid > 0) {
          ::kill(pid, SIGKILL);
          ::waitpid(pid, nullptr, 0);
        }
      }
    } reaper{pid};

    std::uint64_t seq = 0;
    std::uint64_t rounds = 0;
    std::uint64_t stamp = 0;
    const auto observe = [&](const NodeReport& r) {
      EXPECT_GE(r.snapshot_seq, seq) << "incarnation " << kill;
      EXPECT_GE(r.rounds, rounds) << "incarnation " << kill;
      EXPECT_GE(r.snapshot_ns, stamp) << "incarnation " << kill;
      seq = r.snapshot_seq;
      rounds = r.rounds;
      stamp = r.snapshot_ns;
    };
    // Past the first flush: poll until a snapshot has counted a round, then
    // on until a fixed-seed instant 0-80 ms later, and kill there.
    using Clock = std::chrono::steady_clock;
    const auto give_up = Clock::now() + std::chrono::seconds(10);
    while (rounds == 0 && Clock::now() < give_up) {
      if (const auto r = read_report_file(report)) observe(*r);
    }
    ASSERT_GE(rounds, 1u) << "incarnation " << kill << " never made a round";
    const auto kill_at =
        Clock::now() + std::chrono::microseconds(rng.next_below(80'000));
    while (Clock::now() < kill_at) {
      if (const auto r = read_report_file(report)) observe(*r);
    }
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    reaper.pid = 0;
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

    const auto after = read_report_file(report);
    ASSERT_TRUE(after.has_value()) << "no complete snapshot after kill " << kill;
    EXPECT_GE(after->rounds, 1u);
    observe(*after);
  }
  std::filesystem::remove_all(dir);
}

TEST(LiveCluster, StopAndFatalSignalWriteOneBinaryTrace) {
  // A node's flight ring has one way out, <report>.trace in the binary
  // layout, written once on every way out of the process: after the
  // protocol thread stops on SIGTERM (exit 0), and from the SIGABRT
  // handler with only async-signal-safe calls before it re-raises. SIGABRT
  // (not SIGKILL — nothing can handle that) stands in for any fatal
  // fault. One node makes rounds alone (exec_lone_node).
  const std::string dir = fresh_report_dir("ringdump");
  std::filesystem::create_directories(dir);
  for (const int sig : {SIGTERM, SIGABRT}) {
    const std::string name = sig == SIGTERM ? "sigterm" : "sigabrt";
    SCOPED_TRACE(name);
    const std::string report = dir + "/" + name + ".bin";
    const pid_t pid = exec_lone_node(
        {"--base-port=48500", "--flush-ms=50", "--report=" + report});
    ASSERT_GE(pid, 0);

    std::this_thread::sleep_for(std::chrono::milliseconds(1000));
    ASSERT_EQ(::kill(pid, sig), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    if (sig == SIGTERM) {
      ASSERT_TRUE(WIFEXITED(status)) << "node did not exit cleanly";
      EXPECT_EQ(WEXITSTATUS(status), 0);
    } else {
      ASSERT_TRUE(WIFSIGNALED(status)) << "node exited instead of dying";
      EXPECT_EQ(WTERMSIG(status), SIGABRT);
    }

    const auto records = obs::load_trace_records(report + ".trace");
    ASSERT_TRUE(records.has_value()) << "missing or unloadable ring dump";
    EXPECT_GT(records->size(), 0u);
    bool saw_round_open = false;
    for (const obs::TraceRecord& r : *records) {
      const auto kind = static_cast<std::uint8_t>(r.kind);
      EXPECT_GE(kind, 1);
      EXPECT_LE(kind, obs::kMaxTraceKind);
      if (r.kind == obs::TraceKind::kRoundOpen) saw_round_open = true;
    }
    EXPECT_TRUE(saw_round_open);
  }

  std::filesystem::remove_all(dir);
}

TEST(LiveCluster, SupervisorHarvestsAndAssemblesTraces) {
  // End-to-end tracing over real processes: every surviving node writes its
  // ring as it stops on the Supervisor's SIGTERM, and the Supervisor writes
  // the manifest and assembles the cluster-wide timeline up to the horizon.
  // The rings and the kill stamps read one host clock, so the assembled
  // latencies are metrics::Analysis's over the nodes' reports, exactly, and
  // each observer's attribution sums to its latency.
  SupervisorConfig cfg;
  cfg.n = 6;
  cfg.f = 2;
  cfg.base_port = 48600;
  cfg.pacing = from_millis(50);
  cfg.flush = from_millis(100);
  cfg.trace = true;
  cfg.report_dir = fresh_report_dir("traceharvest");

  // A stale dump from a "previous run" in the same directory must be
  // removed at spawn, never stitched into this run. The victim dies by
  // SIGKILL and never writes its ring, so if its file survives to the end,
  // spawn() leaked it.
  std::filesystem::create_directories(cfg.report_dir);
  const std::string stale = cfg.report_dir + "/node5.g0.bin.trace";
  { std::ofstream os(stale); os << "stale garbage\n"; }

  Supervisor supervisor(cfg);
  const Duration horizon = from_seconds(6);
  const std::vector<CrashEvent> schedule = {
      {ProcessId{5}, from_seconds(2), std::nullopt}};
  const LiveRunResult result = supervisor.run(schedule, horizon);

  EXPECT_FALSE(std::filesystem::exists(stale)) << "stale dump survived spawn";
  const auto manifest = obs::load_manifest(
      cfg.report_dir + "/" + std::string(obs::kTraceManifestName));
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->horizon_ns, horizon.count());
  // One dump per survivor, each written as it stopped; none for the victim.
  ASSERT_EQ(manifest->traces.size(), cfg.n - 1);
  for (const auto& entry : manifest->traces) {
    EXPECT_NE(entry.node, 5u);
    EXPECT_EQ(entry.file,
              "node" + std::to_string(entry.node) + ".g0.bin.trace");
    EXPECT_TRUE(
        obs::load_trace_records(cfg.report_dir + "/" + entry.file).has_value())
        << entry.file;
  }
  EXPECT_TRUE(
      std::filesystem::exists(cfg.report_dir + "/trace_assembled.json"));

  ASSERT_TRUE(result.trace.has_value());
  EXPECT_GT(result.trace->records, 0u);
  EXPECT_GT(result.trace->matched_pairs, 0u);
  EXPECT_EQ(result.trace->causal_violations, 0u);
  ASSERT_EQ(result.trace->crashes.size(), 1u);
  const obs::CrashTimeline& ct = result.trace->crashes[0];
  EXPECT_EQ(ct.victim, 5u);
  EXPECT_GT(ct.observers.size(), 0u);
  EXPECT_EQ(ct.observers.size() + ct.undetected, cfg.n - 1);
  for (const obs::ObserverBreakdown& ob : ct.observers) {
    EXPECT_EQ(ob.pacing_ns + ob.resend_wait_ns + ob.wire_ns, ob.latency_ns)
        << "observer " << ob.observer;
  }
  if (ct.undetected == 0) {
    EXPECT_TRUE(ct.stable_ns.has_value());
  }

  // The oracle: the reports' suspicion histories and the kill stamps, merged
  // into one EventLog as Supervisor::aggregate merges them, read by
  // metrics::Analysis at the horizon. Its detecting (observer, victim) pairs
  // and the assembled ones must be the same pairs, each with the same
  // latency to the nanosecond.
  sim::Simulation clock_source;  // never advanced; EventLog only needs a ref
  metrics::EventLog log(clock_source);
  std::vector<metrics::SuspicionEvent> events;
  for (const LiveNodeOutcome& node : result.nodes) {
    for (const NodeReport& r : node.reports) {
      for (const ReportEvent& ev : r.events) {
        events.push_back(metrics::SuspicionEvent{
            Duration{static_cast<std::int64_t>(ev.when_ns)}, node.id,
            ProcessId{ev.subject},
            static_cast<metrics::SuspicionEventKind>(ev.kind), ev.tag});
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const metrics::SuspicionEvent& a,
                      const metrics::SuspicionEvent& b) {
                     return a.when < b.when;
                   });
  for (const metrics::SuspicionEvent& ev : events) log.append(ev);
  for (const LiveCrash& c : result.crashes) {
    log.record_crash_at(c.victim, c.at);
  }
  const metrics::Analysis analysis(log, cfg.n, horizon);
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t> expected;
  for (const metrics::Detection& d : analysis.detections()) {
    if (const auto latency = d.latency()) {
      expected[{d.observer.value, d.subject.value}] = latency->count();
    }
  }
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t> assembled;
  for (const obs::CrashTimeline& c : result.trace->crashes) {
    for (const obs::ObserverBreakdown& ob : c.observers) {
      assembled[{ob.observer, c.victim}] = ob.latency_ns;
    }
  }
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(assembled, expected);

  // The rings run on past the horizon until each node stops; the assembled
  // run does not.
  const auto timeline = obs::assemble_from_dir(cfg.report_dir, true);
  ASSERT_TRUE(timeline.has_value());
  EXPECT_EQ(timeline->timeline.size(), result.trace->records);
  for (const obs::TimelineEvent& e : timeline->timeline) {
    ASSERT_LE(e.t_ns, horizon.count()) << "node " << e.node;
  }

  std::filesystem::remove_all(cfg.report_dir);
}

TEST(LiveCluster, NoFirstRoundWaitsForAResendWave) {
  // The start barrier: the Supervisor releases the nodes only once every
  // one has bound its socket. A query sent to a peer not bound yet is
  // lost, and its round waits for the resend wave (500 ms here), so a
  // resend wave before a ring's first round close means that node queried
  // a peer before the peer had bound.
  constexpr std::uint32_t kN = 16;
  SupervisorConfig cfg;
  cfg.n = kN;
  cfg.f = 4;
  cfg.base_port = 44000;
  cfg.trace = true;
  cfg.report_dir = fresh_report_dir("barrier");

  Supervisor supervisor(cfg);
  const LiveRunResult result = supervisor.run({}, from_seconds(3));
  EXPECT_EQ(result.unexpected_exits, 0u);
  EXPECT_EQ(result.missing_reports, 0u);

  const auto manifest = obs::load_manifest(
      cfg.report_dir + "/" + std::string(obs::kTraceManifestName));
  ASSERT_TRUE(manifest.has_value());
  ASSERT_EQ(manifest->traces.size(), kN);
  for (const auto& entry : manifest->traces) {
    const auto records =
        obs::load_trace_records(cfg.report_dir + "/" + entry.file);
    ASSERT_TRUE(records.has_value()) << entry.file;
    EXPECT_TRUE(std::any_of(records->begin(), records->end(),
                            [](const obs::TraceRecord& r) {
                              return r.kind == obs::TraceKind::kRoundClose;
                            }))
        << "node " << entry.node << " closed no round";
    // A wrapped ring no longer holds the first round and answers false.
    ASSERT_FALSE(records->empty()) << entry.file;
    EXPECT_EQ(records->front().seq, 0u)
        << "node " << entry.node << "'s ring wrapped past its first round";
    EXPECT_FALSE(obs::first_round_waited_for_wave(*records))
        << "node " << entry.node << "'s first round waited for a wave";
  }
  // Every report counts from the release, the origin the manifest records.
  for (const LiveNodeOutcome& node : result.nodes) {
    for (const NodeReport& r : node.reports) {
      EXPECT_EQ(r.origin_ns, manifest->origin_ns) << "node " << node.id;
    }
  }
  std::filesystem::remove_all(cfg.report_dir);
}

TEST(LiveCluster, NodesExitWhenTheirSupervisorDies) {
  // The lifeline: a Supervisor killed mid-run (no shutdown, no SIGTERM to
  // its nodes) closes every control socket as it dies, and each node stops
  // as on SIGTERM. The Supervisor runs in a forked child, with a horizon it
  // never reaches. With n >= 2 this also catches a Supervisor end leaked
  // into a sibling node, which would keep that node's socket open.
  constexpr std::uint32_t kN = 4;
  constexpr std::uint16_t kBasePort = 44200;
  SupervisorConfig cfg;
  cfg.n = kN;
  cfg.f = 1;
  cfg.base_port = kBasePort;
  cfg.pacing = from_millis(50);
  cfg.flush = from_millis(100);
  cfg.report_dir = fresh_report_dir("lifeline");

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    try {
      Supervisor supervisor(cfg);
      (void)supervisor.run({}, from_seconds(600));
    } catch (...) {
    }
    _exit(0);
  }
  // Kills the Supervisor, and any node it leaves, on every path out.
  struct Cleanup {
    pid_t pid;
    ~Cleanup() {
      if (pid > 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
      kill_nodes_of(kBasePort);
    }
  } cleanup{pid};

  using Clock = std::chrono::steady_clock;
  const auto give_up = Clock::now() + std::chrono::seconds(20);
  std::set<std::uint32_t> running;
  while (running.size() < kN && Clock::now() < give_up) {
    for (std::uint32_t i = 0; i < kN; ++i) {
      const auto r = read_report_file(cfg.report_dir + "/node" +
                                      std::to_string(i) + ".g0.bin");
      if (r && r->rounds >= 1) running.insert(i);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(running.size(), kN) << "the cluster never made rounds";

  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  ASSERT_EQ(::waitpid(pid, nullptr, 0), pid);
  cleanup.pid = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  for (std::uint32_t i = 0; i < kN; ++i) {
    const auto port = static_cast<std::uint16_t>(kBasePort + i);
    while (!port_free(port) && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(port_free(port))
        << "node " << i << " still holds its port 2 s after its Supervisor died";
  }
  while (!nodes_of(kBasePort).empty() && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(nodes_of(kBasePort).empty())
      << "a node still runs 2 s after its Supervisor died";
  std::filesystem::remove_all(cfg.report_dir);
}

TEST(LiveCluster, SpawnFailsFastWhenANodeCannotBind) {
  // A node that cannot bind exits before it is ready; the Supervisor sees
  // its control socket close, kills the others and throws, rather than
  // releasing a cluster one node short. Nothing is sent to a dead node, so
  // no SIGPIPE reaches this process.
  constexpr std::uint32_t kN = 4;
  constexpr std::uint16_t kBasePort = 44300;
  constexpr std::uint32_t kBlocked = 2;
  const int held = bind_udp(kBasePort + kBlocked);
  ASSERT_GE(held, 0) << "port " << kBasePort + kBlocked << " already in use";

  SupervisorConfig cfg;
  cfg.n = kN;
  cfg.f = 1;
  cfg.base_port = kBasePort;
  cfg.report_dir = fresh_report_dir("bindfail");
  Supervisor supervisor(cfg);
  const auto started = std::chrono::steady_clock::now();
  EXPECT_THROW((void)supervisor.run({}, from_seconds(600)),
               std::runtime_error);
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(5));
  ::close(held);
  // The other nodes are gone, so their ports bind at once.
  for (std::uint32_t i = 0; i < kN; ++i) {
    EXPECT_TRUE(port_free(static_cast<std::uint16_t>(kBasePort + i)))
        << "node " << i << " outlived the failed spawn";
  }
  kill_nodes_of(kBasePort);
  std::filesystem::remove_all(cfg.report_dir);
}

}  // namespace
}  // namespace mmrfd::live
