// SCALE — large-n stress sweep of the simulation substrate.
//
// The DSN'03 evaluation stopped at tens of processes; this driver pushes the
// same protocol to n = 1000 and beyond, with crash plans and mid-run delay
// spikes, and reports *simulator* throughput (events/sec of wall clock)
// alongside the protocol metrics. It is the perf-trajectory anchor: each run
// appends a machine-readable snapshot to BENCH_scale.json so the
// events/sec trend across PRs is one `git log -p BENCH_scale.json` away.
//
// The n=1000 default sweep exercises ~2 million messages per simulated
// second (every host broadcasts an n-1-recipient query plus collects n-1
// responses per pacing period), which is exactly the workload the
// shared-payload broadcast, the pooled event heap and the delta-encoded
// query path exist for.
//
// --mode both (the default) runs every (n, seed) config under the delta
// wire encoding AND the canonical full encoding: the `delta` column is the
// sweep's own differential check (state metrics must match row for row) and
// `B_per_query` shows what the encoding buys. Every config runs in its own
// forked worker, --jobs N of them at a time (one by default), and the row's
// peak_rss_mb is that worker's own peak resident set, from wait4.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define MMRFD_HAVE_FORK 1
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define MMRFD_HAVE_FORK 0
#endif

#include "common/argparse.h"
#include "exp_common.h"
#include "metrics/table.h"
#include "obs/metrics_registry.h"
#include "runtime/sharded_cluster.h"

using namespace mmrfd;
using metrics::Table;

namespace {

struct ScaleConfig {
  std::uint32_t n{0};
  std::uint64_t seed{0};
  bool delta{true};
  std::uint32_t shards{0};  ///< 0 = serial Simulation, >0 = ShardedEngine
  bool rollup_log{false};   ///< serial path only; sharded is always rollup
};

struct ScaleResult {
  std::uint32_t n{0};
  std::uint32_t f{0};
  std::uint64_t seed{0};
  bool delta{true};
  std::uint32_t shards{0};  ///< 0 = serial engine
  double horizon_s{0};
  double wall_s{0};
  std::uint64_t events_fired{0};
  double events_per_sec{0};
  std::uint64_t messages_sent{0};
  std::uint64_t bytes_sent{0};
  double bytes_per_query{0};
  std::size_t crashes{0};
  bool strong_completeness{false};
  double detection_mean_s{0};
  double detection_p50_s{0};
  double detection_p99_s{0};
  double detection_max_s{0};
  std::size_t false_suspicions{0};
  // Round RTT (query start -> quorum) percentiles from the sim.round_rtt_ns
  // registry histogram — serial runs use one shared registry, sharded runs
  // merge the per-shard ones.
  double round_rtt_p50_ms{0};
  double round_rtt_p99_ms{0};
  /// The config's worker's peak RSS (ru_maxrss), in MiB; 0 without fork.
  double peak_rss_mb{0};
};
// Workers ship results to the parent as raw bytes.
static_assert(std::is_trivially_copyable_v<ScaleResult>);

runtime::MmrClusterConfig cluster_config(const ScaleConfig& c,
                                         Duration horizon, Duration pacing,
                                         bool with_spike) {
  const std::uint32_t n = c.n;
  runtime::MmrClusterConfig cfg;
  cfg.n = n;
  cfg.f = (n + 3) / 4;
  cfg.seed = c.seed;
  cfg.pacing = pacing;
  cfg.pacing_jitter = 0.1;  // arbitrary inter-query times, as the model allows
  cfg.mean_delay = from_millis(1);
  cfg.delay_preset = net::DelayPreset::kExponential;
  cfg.delta_queries = c.delta;
  if (c.rollup_log) cfg.log_mode = metrics::LogMode::kRollup;
  if (with_spike) {
    // A transient slowdown on ~1% of the nodes in the back half of the run.
    // The factor pushes their mean delay (1ms) past the pacing period (1s),
    // so affected responses miss whole rounds: the sweep exercises false
    // suspicions and their self-defence repairs at scale, not just the
    // happy path.
    runtime::SpikeSpec spike;
    spike.start = from_seconds(to_seconds(horizon) * 0.65);
    spike.end = from_seconds(to_seconds(horizon) * 0.75);
    spike.factor = 2000.0;
    for (std::uint32_t i = 0; i < std::max<std::uint32_t>(1, n / 100); ++i) {
      spike.affected.push_back(ProcessId{i});
    }
    cfg.spike = spike;
  }
  return cfg;
}

runtime::CrashPlan crash_plan(const ScaleConfig& c, Duration horizon,
                              std::size_t crashes) {
  return runtime::CrashPlan::uniform(
      crashes, c.n, from_seconds(to_seconds(horizon) * 0.2),
      from_seconds(to_seconds(horizon) * 0.6), c.seed);
}

// Per-query byte accounting rides the size_fn: wire_size is exact for both
// encodings, so bytes/query is the sweep's full-vs-delta column.
struct WireTally {
  std::uint64_t query_bytes{0};
  std::uint64_t queries{0};
};

template <typename Net>
void install_tally(Net& net, std::shared_ptr<WireTally> tally) {
  net.set_size_fn([tally = std::move(tally)](const runtime::MmrMessage& m) {
    const std::size_t size = std::visit(
        [](const auto& msg) { return transport::wire_size(msg); }, m);
    if (std::holds_alternative<core::QueryMessage>(m)) {
      tally->query_bytes += size;
      ++tally->queries;
    }
    return size;
  });
}

void fill_result(ScaleResult& r, const ScaleConfig& c, std::uint32_t f,
                 Duration horizon, double wall_s, const WireTally& tally,
                 std::size_t crashes, const bench::RunMetrics& m) {
  r.n = c.n;
  r.f = f;
  r.seed = c.seed;
  r.delta = c.delta;
  r.shards = c.shards;
  r.horizon_s = to_seconds(horizon);
  r.wall_s = wall_s;
  r.events_per_sec =
      wall_s > 0 ? static_cast<double>(r.events_fired) / wall_s : 0;
  r.bytes_per_query =
      tally.queries > 0 ? static_cast<double>(tally.query_bytes) /
                              static_cast<double>(tally.queries)
                        : 0;
  r.crashes = crashes;
  r.strong_completeness = m.strong_completeness;
  r.detection_mean_s = m.detection_latencies.mean();
  r.detection_p50_s = m.detection_latencies.percentile(50.0);
  r.detection_p99_s = m.detection_latencies.percentile(99.0);
  r.detection_max_s = m.detection_latencies.max();
  r.false_suspicions = m.false_suspicions;
}

void fill_round_rtt(ScaleResult& r, const obs::RegistrySnapshot& snap) {
  if (const obs::HistogramSnapshot* h =
          snap.find_histogram("sim.round_rtt_ns")) {
    r.round_rtt_p50_ms = h->percentile(0.50) / 1e6;
    r.round_rtt_p99_ms = h->percentile(0.99) / 1e6;
  }
}

ScaleResult run_serial(const ScaleConfig& c, Duration horizon, Duration pacing,
                       bool with_spike) {
  runtime::MmrClusterConfig cfg =
      cluster_config(c, horizon, pacing, with_spike);
  obs::MetricsRegistry registry;  // sim.* instruments for every host
  cfg.registry = &registry;
  runtime::MmrCluster cluster(cfg);
  auto tally = std::make_shared<WireTally>();
  install_tally(cluster.network(), tally);

  const std::size_t crashes = cfg.f / 2;
  const auto plan = crash_plan(c, horizon, crashes);

  std::cerr << "[exp_scale] n=" << c.n << " seed=" << c.seed
            << (c.delta ? " delta" : " full") << " serial simulating...\n";
  const auto wall_start = std::chrono::steady_clock::now();
  cluster.start(plan);
  cluster.run_for(horizon);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  std::cerr << "[exp_scale]   sim " << wall.count() << "s, "
            << cluster.simulation().events_fired() << " events, "
            << cluster.log().entries() << " log entries; analysing...\n";

  const bench::RunMetrics m =
      cfg.log_mode == metrics::LogMode::kRollup
          ? bench::summarize_rollup_metrics(cluster.log().rollup(),
                                            cluster.log().crashes(), c.n)
          : bench::summarize(cluster.log(), c.n, horizon);
  std::cerr << "[exp_scale]   analysis "
            << std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             wall_start)
                   .count() -
                   wall.count()
            << "s\n";

  ScaleResult r;
  r.events_fired = cluster.simulation().events_fired();
  r.messages_sent = cluster.network().stats().messages_sent;
  r.bytes_sent = cluster.network().stats().bytes_sent;
  fill_result(r, c, cfg.f, horizon, wall.count(), *tally, crashes, m);
  fill_round_rtt(r, registry.snapshot());
  return r;
}

ScaleResult run_sharded(const ScaleConfig& c, Duration horizon, Duration pacing,
                        bool with_spike) {
  const runtime::MmrClusterConfig cfg =
      cluster_config(c, horizon, pacing, with_spike);
  runtime::ShardedMmrCluster cluster(cfg, c.shards);
  // One tally per shard: each network's size_fn runs on that shard's worker
  // thread, so the counters must not be shared across shards.
  std::vector<std::shared_ptr<WireTally>> tallies;
  for (std::uint32_t s = 0; s < c.shards; ++s) {
    tallies.push_back(std::make_shared<WireTally>());
    install_tally(cluster.network(s), tallies.back());
  }

  const std::size_t crashes = cfg.f / 2;
  const auto plan = crash_plan(c, horizon, crashes);

  std::cerr << "[exp_scale] n=" << c.n << " seed=" << c.seed
            << (c.delta ? " delta" : " full") << " sharded x" << c.shards
            << " (window " << to_seconds(cluster.engine().window()) * 1e6
            << "us) simulating...\n";
  const auto wall_start = std::chrono::steady_clock::now();
  cluster.start(plan);
  cluster.run_for(horizon);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  std::cerr << "[exp_scale]   sim " << wall.count() << "s, "
            << cluster.engine().events_fired() << " events, "
            << cluster.engine().windows_run() << " windows, "
            << cluster.engine().cross_shard_posts() << " exchanged, "
            << (cluster.log_retained_bytes() >> 20)
            << " MiB log; analysing...\n";

  const bench::RunMetrics m = bench::summarize_rollup_metrics(
      cluster.rollup(), cluster.crashes(), c.n);

  WireTally tally;
  for (const auto& t : tallies) {
    tally.query_bytes += t->query_bytes;
    tally.queries += t->queries;
  }
  const net::NetworkStats stats = cluster.stats();
  ScaleResult r;
  r.events_fired = cluster.engine().events_fired();
  r.messages_sent = stats.messages_sent;
  r.bytes_sent = stats.bytes_sent;
  fill_result(r, c, cfg.f, horizon, wall.count(), tally, crashes, m);
  fill_round_rtt(r, cluster.telemetry());
  return r;
}

ScaleResult run_config(const ScaleConfig& c, Duration horizon, Duration pacing,
                       bool with_spike) {
  return c.shards > 0 ? run_sharded(c, horizon, pacing, with_spike)
                      : run_serial(c, horizon, pacing, with_spike);
}

#if MMRFD_HAVE_FORK
/// Runs every config in its own forked process, at most `jobs` at a time
/// (the configs are embarrassingly parallel; one process per config also
/// returns each run's slab/log memory to the OS the moment it finishes, and
/// gives each its own peak RSS: wait4's ru_maxrss, kept as peak_rss_mb).
/// Results arrive over per-child pipes and land at their config's index, so
/// the output order is the config order. Returns 0 when every child
/// succeeded; otherwise the first failing child's exit status (or
/// 128 + signal for a signalled child), so the sweep's exit code carries
/// the real failure instead of a generic 1.
int run_forked(const std::vector<ScaleConfig>& configs, Duration horizon,
               Duration pacing, bool with_spike, std::size_t jobs,
               std::vector<ScaleResult>& results) {
  struct Child {
    pid_t pid{-1};
    int fd{-1};
    std::size_t index{0};
  };
  std::vector<Child> active;
  std::size_t next = 0;
  int rc = 0;

  auto spawn = [&](std::size_t index) {
    int fds[2];
    if (pipe(fds) != 0) {
      std::cerr << "exp_scale: pipe failed: " << std::strerror(errno) << "\n";
      return false;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      std::cerr << "exp_scale: fork failed: " << std::strerror(errno) << "\n";
      close(fds[0]);
      close(fds[1]);
      return false;
    }
    if (pid == 0) {
      close(fds[0]);
      const ScaleResult r =
          run_config(configs[index], horizon, pacing, with_spike);
      const char* p = reinterpret_cast<const char*>(&r);
      std::size_t left = sizeof r;
      while (left > 0) {
        const ssize_t w = write(fds[1], p, left);
        if (w <= 0) _exit(2);
        p += w;
        left -= static_cast<std::size_t>(w);
      }
      _exit(0);
    }
    close(fds[1]);
    active.push_back(Child{pid, fds[0], index});
    return true;
  };

  while (next < configs.size() || !active.empty()) {
    while (rc == 0 && next < configs.size() && active.size() < jobs) {
      if (!spawn(next)) {
        rc = 1;
        break;
      }
      ++next;
    }
    if (active.empty()) break;
    int status = 0;
    rusage usage{};
    const pid_t done = wait4(-1, &status, 0, &usage);
    auto it = active.begin();
    while (it != active.end() && it->pid != done) ++it;
    if (it == active.end()) continue;  // not one of ours
    ScaleResult r;
    char* p = reinterpret_cast<char*>(&r);
    std::size_t got = 0;
    while (got < sizeof r) {
      const ssize_t n_read = read(it->fd, p + got, sizeof(r) - got);
      if (n_read <= 0) break;
      got += static_cast<std::size_t>(n_read);
    }
    close(it->fd);
    const bool child_ok =
        WIFEXITED(status) && WEXITSTATUS(status) == 0 && got == sizeof r;
    if (child_ok) {
      r.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
      results[it->index] = r;
    } else {
      // Propagate what actually happened: the child's own exit status, a
      // signal death as 128 + signo (shell convention), or 1 for a clean
      // exit that still short-wrote its result. First failure wins.
      int child_rc = 1;
      if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
        child_rc = WEXITSTATUS(status);
      } else if (WIFSIGNALED(status)) {
        child_rc = 128 + WTERMSIG(status);
      }
      std::cerr << "exp_scale: worker for n=" << configs[it->index].n
                << " seed=" << configs[it->index].seed << " failed ("
                << (WIFSIGNALED(status)
                        ? "signal " + std::to_string(WTERMSIG(status))
                        : "exit " + std::to_string(WEXITSTATUS(status)))
                << ")\n";
      if (rc == 0) rc = child_rc;
    }
    active.erase(it);
  }
  return rc;
}
#endif  // MMRFD_HAVE_FORK

/// `spike` is the sweep's --spike, recorded in every row: it changes the
/// fixed-seed columns, so check_bench keys rows by it.
[[nodiscard]] bool write_json(const std::vector<ScaleResult>& results,
                              bool spike, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "exp_scale: cannot open " << path << " for writing\n";
    return false;
  }
  os << "{\n  \"experiment\": \"exp_scale\",\n  \"unit\": {\"events_per_sec\": "
        "\"simulator events fired per wall-clock second\"},\n  \"results\": [";
  bool first = true;
  for (const auto& r : results) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"n\": " << r.n << ", \"f\": " << r.f
       << ", \"seed\": " << r.seed
       << ", \"delta\": " << (r.delta ? "true" : "false")
       << ", \"engine\": \"" << (r.shards > 0 ? "sharded" : "serial")
       << "\", \"shards\": " << r.shards
       << ", \"horizon_s\": " << r.horizon_s
       << ", \"spike\": " << (spike ? "true" : "false")
       << ", \"wall_s\": " << r.wall_s
       << ", \"events_fired\": " << r.events_fired
       << ", \"events_per_sec\": " << r.events_per_sec
       << ", \"messages_sent\": " << r.messages_sent
       << ", \"bytes_sent\": " << r.bytes_sent
       << ", \"bytes_per_query\": " << r.bytes_per_query
       << ", \"crashes\": " << r.crashes << ", \"strong_completeness\": "
       << (r.strong_completeness ? "true" : "false")
       << ", \"detection_mean_s\": " << r.detection_mean_s
       << ", \"detection_p50_s\": " << r.detection_p50_s
       << ", \"detection_p99_s\": " << r.detection_p99_s
       << ", \"detection_max_s\": " << r.detection_max_s
       << ", \"round_rtt_p50_ms\": " << r.round_rtt_p50_ms
       << ", \"round_rtt_p99_ms\": " << r.round_rtt_p99_ms
       << ", \"false_suspicions\": " << r.false_suspicions
       << ", \"peak_rss_mb\": " << r.peak_rss_mb << "}";
  }
  os << "\n  ]\n}\n";
  os.flush();
  if (!os) {
    std::cerr << "exp_scale: short write to " << path << "\n";
    return false;
  }
  std::cout << "\nwrote " << path << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint32_t> sizes = {100, 300, 1000};
  std::uint64_t seeds = 1;
  std::uint32_t horizon_s = 20, period_ms = 1000, shards = 4;
  bool spike = true, csv = false;
  std::string mode = "both", engine = "serial", log_mode = "full",
              out = "BENCH_scale.json";
  std::size_t jobs = 1;
  ArgParser args("SCALE: large-n simulator stress sweep (events/sec trajectory)");
  args.flag("sizes", sizes, "comma-separated n values")
      .flag("seeds", seeds, "seeds per configuration")
      .flag("horizon", horizon_s, "simulated seconds per run")
      .flag("period", period_ms, "query pacing Delta (ms)")
      .flag("spike", spike, "inject a mid-run delay spike on ~1% of nodes")
      .flag("mode", mode, "query encoding: delta, full, or both")
      .flag("engine", engine, "simulation engine: serial, sharded, or both")
      .flag("shards", shards, "worker shards for the sharded engine")
      .flag("log", log_mode, "serial event-log retention: full or rollup")
      .flag("jobs", jobs, "worker processes (one per config) run at a time")
      .flag("out", out, "JSON output path")
      .flag("csv", csv, "emit CSV instead of an aligned table");
  if (const auto status = args.parse(argc, argv)) return *status;

  // n = 1 would make f = (n+3)/4 >= n, which DetectorCore (correctly)
  // rejects by throwing; the upper bound keeps a typo'd size from
  // allocating a "cluster" of billions of hosts.
  if (sizes.empty()) {
    std::cerr << "exp_scale: --sizes must name at least one size\n";
    return 2;
  }
  for (const std::uint32_t n : sizes) {
    if (n < 2 || n > 1000000) {
      std::cerr << "exp_scale: --sizes entries must be in [2, 1000000] "
                   "(got " << n << ")\n";
      return 2;
    }
  }
  if (mode != "delta" && mode != "full" && mode != "both") {
    std::cerr << "exp_scale: --mode must be delta, full or both (got '"
              << mode << "')\n";
    return 2;
  }
  if (engine != "serial" && engine != "sharded" && engine != "both") {
    std::cerr << "exp_scale: --engine must be serial, sharded or both (got '"
              << engine << "')\n";
    return 2;
  }
  if (shards < 1 || shards > 256) {
    std::cerr << "exp_scale: --shards must be in [1, 256]\n";
    return 2;
  }
  if (log_mode != "full" && log_mode != "rollup") {
    std::cerr << "exp_scale: --log must be full or rollup (got '" << log_mode
              << "')\n";
    return 2;
  }
  if (jobs < 1) {
    std::cerr << "exp_scale: --jobs must be >= 1\n";
    return 2;
  }
  if (engine != "serial" && jobs > 1) {
    // --jobs forks whole processes and --shards threads each sharded run:
    // multiplied, they oversubscribe the machine and the per-run wall-clock
    // numbers stop meaning anything. Cap the process count so
    // jobs * shards <= hardware threads (but always allow one job).
    const std::size_t hc = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t cap = std::max<std::size_t>(1, hc / shards);
    if (jobs > cap) {
      std::cerr << "exp_scale: --jobs " << jobs << " x --shards " << shards
                << " oversubscribes " << hc
                << " hardware threads; capping --jobs to " << cap << "\n";
      jobs = cap;
    }
  }
#if !MMRFD_HAVE_FORK
  if (jobs > 1) {
    std::cerr << "exp_scale: --jobs needs fork(); running in-process\n";
  }
#endif
  const auto horizon = from_seconds(horizon_s);
  const auto pacing = from_millis(period_ms);

  std::cout << "# SCALE: simulator stress sweep  (f = n/4, f/2 crashes, "
            << (spike ? "spike on" : "spike off") << ", horizon " << horizon_s
            << "s, mode " << mode << ")\n\n";

  // Build the config list up front (the unit of work for --jobs). Encoding
  // varies fastest so full-vs-delta rows for one (n, seed) sit adjacent.
  std::vector<ScaleConfig> configs;
  const bool rollup = log_mode == "rollup";
  for (const std::uint32_t n : sizes) {
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      for (const bool delta : {false, true}) {
        if (delta ? mode == "full" : mode == "delta") continue;
        if (engine != "sharded") configs.push_back({n, seed, delta, 0, rollup});
        if (engine != "serial") {
          configs.push_back({n, seed, delta, shards, rollup});
        }
      }
    }
  }

  std::vector<ScaleResult> results(configs.size());
#if MMRFD_HAVE_FORK
  if (const int rc = run_forked(configs, horizon, pacing, spike, jobs, results);
      rc != 0) {
    return rc;
  }
#else
  for (std::size_t i = 0; i < configs.size(); ++i) {
    results[i] = run_config(configs[i], horizon, pacing, spike);
  }
#endif

  Table table({"n", "f", "seed", "delta", "engine", "wall_s", "events",
               "events_per_sec", "msgs_sent", "B_per_query", "mean_det_s",
               "p99_det_s", "rtt_p50_ms", "complete", "false_susp",
               "peak_rss_mb"});
  for (const auto& r : results) {
    table.add_row({Table::num(std::uint64_t{r.n}),
                   Table::num(std::uint64_t{r.f}), Table::num(r.seed),
                   r.delta ? "yes" : "no",
                   r.shards > 0 ? "shard" + std::to_string(r.shards)
                                : std::string("serial"),
                   Table::num(r.wall_s),
                   Table::num(r.events_fired), Table::num(r.events_per_sec),
                   Table::num(r.messages_sent), Table::num(r.bytes_per_query),
                   Table::num(r.detection_mean_s),
                   Table::num(r.detection_p99_s),
                   Table::num(r.round_rtt_p50_ms),
                   r.strong_completeness ? "yes" : "no",
                   Table::num(std::uint64_t{r.false_suspicions}),
                   Table::num(r.peak_rss_mb)});
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return write_json(results, spike, out) ? 0 : 1;
}
