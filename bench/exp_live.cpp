// LIVE — real-process loopback deployment sweep.
//
// Where exp_scale stresses the simulator, this driver stresses the kernel:
// every configuration fork/execs n mmrfd-node processes (one detector, one
// UDP socket, two threads each), injects SIGKILL crash-stops from a
// runtime::CrashPlan-derived schedule at real wall-clock offsets, and
// aggregates the nodes' binary reports through live::Supervisor into the
// same detection/accuracy/cost metrics the simulated experiments report.
// This is the first place the delta encoding, the shared-full fallback and
// the need_full resync run over a real network stack, with real scheduling
// jitter the simulator cannot represent.
//
// Each run appends a machine-readable snapshot to BENCH_live.json alongside
// exp_scale's BENCH_scale.json, so the live trajectory accrues per PR too.
//
//   ./build/bench/exp_live --sizes 8,32,64 --run 10
//   ./build/bench/exp_live --sizes 128 --period 200 --mode delta
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/argparse.h"
#include "live/supervisor.h"
#include "metrics/table.h"
#include "obs/flight_recorder.h"
#include "obs/trace_assembler.h"
#include "runtime/crash_plan.h"

using namespace mmrfd;
using metrics::Table;

namespace {

struct LiveConfig {
  std::uint32_t n{0};
  std::uint64_t seed{0};
  bool delta{true};
  std::uint16_t base_port{0};
};

struct LiveResult {
  std::uint32_t n{0};
  std::uint32_t f{0};
  std::uint64_t seed{0};
  bool delta{true};
  double run_s{0};
  std::size_t crashes{0};
  std::size_t restarts{0};
  bool strong_completeness{false};
  double detection_mean_s{0};
  double detection_p50_s{0};
  double detection_p99_s{0};
  double detection_max_s{0};
  std::size_t false_suspicions{0};
  std::size_t unexpected_exits{0};
  std::size_t missing_reports{0};
  // Resource use of every node incarnation, summed from the supervisor's
  // wait4 reaps: user + system CPU and context switches.
  std::uint64_t node_cpu_us{0};
  std::uint64_t voluntary_switches{0};
  std::uint64_t involuntary_switches{0};
  // The largest peak resident set of any node incarnation (VmHWM), in MiB.
  double peak_rss_mb{0};
  // The cluster-merged registry: every counter and round-RTT column is read
  // from it by instrument name. Wire cost is ground truth (udp.bytes_sent:
  // framing, retransmits and ACKs included); bytes_per_query counts codec
  // payloads (rt.query_bytes_sent).
  obs::RegistrySnapshot metrics;
  // Detection-latency attribution from the assembled cross-node trace: each
  // observer's latency split into round-pacing, resend-wait and wire time
  // (the three sum to the latency exactly), plus the grace: the pacing's
  // share after the detecting round's quorum. Per crash below; the flat
  // means average over every (crash, observer) pair.
  struct CrashBreakdown {
    std::uint32_t victim{0};
    std::size_t observers{0};
    std::uint32_t undetected{0};
    double latency_mean_ms{0};
    double pacing_mean_ms{0};
    double grace_mean_ms{0};
    double resend_wait_mean_ms{0};
    double wire_mean_ms{0};
  };
  std::vector<CrashBreakdown> breakdowns;
  double pacing_mean_ms{0};
  double grace_mean_ms{0};
  double resend_wait_mean_ms{0};
  double wire_mean_ms{0};
  std::size_t trace_causal_violations{0};
  /// Node incarnations whose harvested ring holds a resend wave before its
  /// first round close: first rounds that waited for a wave.
  std::size_t first_round_waves{0};
};

std::uint64_t count(const LiveResult& r, std::string_view name) {
  return r.metrics.counter_value(name);
}

/// A byte counter per query sent (full + delta encodings).
double per_query(const LiveResult& r, std::string_view bytes) {
  const std::uint64_t queries =
      count(r, "rt.full_queries_sent") + count(r, "rt.delta_queries_sent");
  return queries > 0 ? static_cast<double>(count(r, bytes)) /
                           static_cast<double>(queries)
                     : 0.0;
}

/// A node-resource total per finished round (rt.rounds).
double per_round(const LiveResult& r, std::uint64_t total) {
  const std::uint64_t rounds = count(r, "rt.rounds");
  return rounds > 0 ? static_cast<double>(total) / static_cast<double>(rounds)
                    : 0.0;
}

/// Cluster-wide round RTT percentile (q in [0, 1]) in ms.
double round_rtt_ms(const LiveResult& r, double q) {
  const obs::HistogramSnapshot* h = r.metrics.find_histogram("rt.round_rtt_ns");
  return h != nullptr ? h->percentile(q) / 1e6 : 0.0;
}

/// Counts the harvested rings (one per node incarnation) whose first round
/// waited for a resend wave.
std::size_t first_round_waves(const std::string& report_dir) {
  const auto manifest = obs::load_manifest(
      report_dir + "/" + std::string(obs::kTraceManifestName));
  if (!manifest) return 0;
  std::size_t waited = 0;
  for (const auto& entry : manifest->traces) {
    const auto records = obs::load_trace_records(report_dir + "/" + entry.file);
    if (records && obs::first_round_waited_for_wave(*records)) ++waited;
  }
  return waited;
}

[[nodiscard]] bool write_json(const std::vector<LiveResult>& results,
                              const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "exp_live: cannot open " << path << " for writing\n";
    return false;
  }
  os << "{\n  \"experiment\": \"exp_live\",\n  \"unit\": {\"processes\": "
        "\"real OS processes over loopback UDP\"},\n  \"results\": [";
  bool first = true;
  for (const auto& r : results) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"n\": " << r.n << ", \"f\": " << r.f
       << ", \"seed\": " << r.seed
       << ", \"delta\": " << (r.delta ? "true" : "false")
       << ", \"run_s\": " << r.run_s << ", \"crashes\": " << r.crashes
       << ", \"restarts\": " << r.restarts << ", \"strong_completeness\": "
       << (r.strong_completeness ? "true" : "false")
       << ", \"detection_mean_s\": " << r.detection_mean_s
       << ", \"detection_p50_s\": " << r.detection_p50_s
       << ", \"detection_p99_s\": " << r.detection_p99_s
       << ", \"detection_max_s\": " << r.detection_max_s
       << ", \"round_rtt_p50_ms\": " << round_rtt_ms(r, 0.50)
       << ", \"round_rtt_p99_ms\": " << round_rtt_ms(r, 0.99)
       << ", \"false_suspicions\": " << r.false_suspicions
       << ", \"rounds\": " << count(r, "rt.rounds")
       << ", \"full_queries\": " << count(r, "rt.full_queries_sent")
       << ", \"delta_queries\": " << count(r, "rt.delta_queries_sent")
       << ", \"need_full_sent\": " << count(r, "rt.need_full_sent")
       << ", \"need_full_received\": " << count(r, "rt.need_full_received")
       << ", \"bytes_per_query\": " << per_query(r, "rt.query_bytes_sent")
       << ", \"datagrams_sent\": " << count(r, "udp.datagrams_sent")
       << ", \"wire_bytes_sent\": " << count(r, "udp.bytes_sent")
       << ", \"wire_bytes_per_query\": " << per_query(r, "udp.bytes_sent")
       << ", \"datagrams_received\": " << count(r, "udp.datagrams_received")
       << ", \"truncated\": " << count(r, "udp.truncated")
       << ", \"recv_errors\": " << count(r, "udp.recv_errors")
       << ", \"malformed\": " << count(r, "codec.malformed")
       << ", \"node_cpu_us_per_round\": " << per_round(r, r.node_cpu_us)
       << ", \"vol_ctx_switches_per_round\": "
       << per_round(r, r.voluntary_switches)
       << ", \"invol_ctx_switches_per_round\": "
       << per_round(r, r.involuntary_switches)
       << ", \"peak_rss_mb\": " << r.peak_rss_mb
       << ", \"unexpected_exits\": " << r.unexpected_exits
       << ", \"missing_reports\": " << r.missing_reports
       << ", \"pacing_mean_ms\": " << r.pacing_mean_ms
       << ", \"grace_mean_ms\": " << r.grace_mean_ms
       << ", \"resend_wait_mean_ms\": " << r.resend_wait_mean_ms
       << ", \"wire_mean_ms\": " << r.wire_mean_ms
       << ", \"trace_causal_violations\": " << r.trace_causal_violations
       << ", \"first_round_waves\": " << r.first_round_waves
       << ", \"crash_breakdowns\": [";
    bool first_crash = true;
    for (const auto& b : r.breakdowns) {
      os << (first_crash ? "" : ", ") << "{\"victim\": " << b.victim
         << ", \"observers\": " << b.observers
         << ", \"undetected\": " << b.undetected
         << ", \"latency_mean_ms\": " << b.latency_mean_ms
         << ", \"pacing_mean_ms\": " << b.pacing_mean_ms
         << ", \"grace_mean_ms\": " << b.grace_mean_ms
         << ", \"resend_wait_mean_ms\": " << b.resend_wait_mean_ms
         << ", \"wire_mean_ms\": " << b.wire_mean_ms << "}";
      first_crash = false;
    }
    os << "]}";
  }
  os << "\n  ]\n}\n";
  os.flush();
  if (!os) {
    std::cerr << "exp_live: short write to " << path << "\n";
    return false;
  }
  std::cout << "\nwrote " << path << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint32_t> sizes = {8, 32, 64};
  std::uint64_t seeds = 1;
  std::uint32_t run_s = 10, period_ms = 100, flush_ms = 200;
  std::size_t kills = 0;
  std::uint16_t base_port = 41000;
  bool restart = false, csv = false, trace = true;
  std::string mode = "both", node_bin, report_dir, out = "BENCH_live.json";
  ArgParser args(
      "LIVE: multi-process loopback UDP sweep with SIGKILL crash injection");
  args.flag("sizes", sizes, "comma-separated process counts")
      .flag("seeds", seeds, "seeds per configuration (crash-plan draws)")
      .flag("run", run_s, "wall-clock seconds per configuration")
      .flag("period", period_ms, "query pacing Delta (ms)")
      .flag("crashes", kills, "SIGKILLs per run (0 = f/2, at least 1)")
      .flag("restart", restart, "restart each victim ~2s after its kill")
      .flag("mode", mode, "query encoding: delta, full, or both")
      .flag("base-port", base_port, "first UDP port (configs stride upward)")
      .flag("node-bin", node_bin, "mmrfd-node path (empty = auto-discover)")
      .flag("report-dir", report_dir,
            "node report directory (empty = <out>.reports)")
      .flag("flush-ms", flush_ms, "node report snapshot interval (ms)")
      .flag("out", out, "JSON output path")
      .flag("csv", csv, "emit CSV instead of an aligned table")
      .flag("trace", trace,
            "assemble the flight rings the nodes write as they stop and "
            "attribute detection latency (pacing/resend-wait/wire)");
  if (const auto status = args.parse(argc, argv)) return *status;

  // These are real OS processes: cap where a workstation stops being a
  // sane host for the experiment (file descriptors, scheduler load).
  if (sizes.empty()) {
    std::cerr << "exp_live: --sizes must name at least one size\n";
    return 2;
  }
  for (const std::uint32_t n : sizes) {
    if (n < 2 || n > 512) {
      std::cerr << "exp_live: --sizes entries must be in [2, 512] (got " << n
                << ")\n";
      return 2;
    }
  }
  if (mode != "delta" && mode != "full" && mode != "both") {
    std::cerr << "exp_live: --mode must be delta, full or both (got '" << mode
              << "')\n";
    return 2;
  }
  if (run_s < 2) {
    std::cerr << "exp_live: --run must be >= 2 seconds\n";
    return 2;
  }
  if (period_ms < 1) {
    std::cerr << "exp_live: --period must be >= 1 ms\n";
    return 2;
  }
  const std::string report_root =
      report_dir.empty() ? out + ".reports" : report_dir;

  std::cout << "# LIVE: real-process loopback sweep  (f = n/4, "
            << (restart ? "crash+restart" : "crash-stop") << ", run "
            << run_s << "s, mode " << mode << ")\n\n";

  std::vector<LiveConfig> configs;
  {
    std::uint32_t port = base_port;
    for (const std::uint32_t n : sizes) {
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        // Every run gets a fresh port range: nothing to collide with even
        // if a straggler from the previous config lingers for a moment.
        if (mode != "delta") {
          configs.push_back({n, seed, false, static_cast<std::uint16_t>(port)});
          port += n + 32;
        }
        if (mode != "full") {
          configs.push_back({n, seed, true, static_cast<std::uint16_t>(port)});
          port += n + 32;
        }
        if (port > 60000) port = base_port;
      }
    }
  }

  std::vector<LiveResult> results;
  for (const LiveConfig& c : configs) {
    const std::uint32_t f = (c.n + 3) / 4;
    std::size_t crashes = kills;
    if (crashes == 0) crashes = std::max<std::size_t>(1, f / 2);
    crashes = std::min<std::size_t>(crashes, f);

    // Kills land in the [30%, 60%] window of the run — late enough for the
    // cluster to reach steady state, early enough to observe detection.
    const auto plan = runtime::CrashPlan::uniform(
        crashes, c.n, from_seconds(run_s * 0.3), from_seconds(run_s * 0.6),
        c.seed);
    std::vector<live::CrashEvent> schedule;
    std::size_t restarts = 0;
    for (const auto& entry : plan.entries) {
      live::CrashEvent ev;
      ev.victim = entry.victim;
      ev.at = entry.when;
      if (restart) {
        ev.restart_at = entry.when + from_seconds(2.0);
        ++restarts;
      }
      schedule.push_back(ev);
    }

    live::SupervisorConfig scfg;
    scfg.n = c.n;
    scfg.f = f;
    scfg.base_port = c.base_port;
    scfg.pacing = from_millis(period_ms);
    scfg.delta = c.delta;
    scfg.flush = from_millis(flush_ms);
    scfg.trace = trace;
    // A ring that wraps before the node writes it at the stop loses the
    // early crashes' suspect_add records, and their breakdowns read every
    // observer undetected. So the ring holds the whole run: per round one
    // record per peer of each per-peer kind (query_tx, query_rx,
    // response_tx, response_rx, peer_round) plus the round's own (open,
    // quorum, close, waves, suspicions), over run / period rounds, with a
    // quarter's slack for the rounds after the horizon and those a fresh
    // suspicion starts at once.
    const double records_per_round = 5.0 * (c.n - 1) + 8;
    const double rounds = run_s * 1000.0 / period_ms;
    scfg.trace_capacity = static_cast<std::uint32_t>(std::clamp(
        1.25 * records_per_round * rounds, 16384.0,
        static_cast<double>(obs::FlightRecorder::kMaxCapacity)));
    scfg.node_binary = node_bin;
    scfg.report_dir = report_root + "/n" + std::to_string(c.n) + "_s" +
                      std::to_string(c.seed) +
                      (c.delta ? "_delta" : "_full");

    std::cerr << "[exp_live] n=" << c.n << " seed=" << c.seed
              << (c.delta ? " delta" : " full") << " — " << c.n
              << " processes, " << crashes << " kill(s), " << run_s
              << "s...\n";
    live::LiveRunResult run;
    try {
      live::Supervisor supervisor(scfg);
      run = supervisor.run(schedule, from_seconds(run_s));
    } catch (const std::exception& e) {
      std::cerr << "exp_live: n=" << c.n << " run failed: " << e.what()
                << "\n";
      return 1;
    }

    LiveResult r;
    r.n = c.n;
    r.f = f;
    r.seed = c.seed;
    r.delta = c.delta;
    r.run_s = run_s;
    r.crashes = crashes;
    r.restarts = restarts;
    r.strong_completeness = run.strong_completeness;
    if (!run.detection_latencies.empty()) {
      r.detection_mean_s = run.detection_latencies.mean();
      r.detection_p50_s = run.detection_latencies.percentile(50.0);
      r.detection_p99_s = run.detection_latencies.percentile(99.0);
      r.detection_max_s = run.detection_latencies.max();
    }
    r.metrics = run.metrics;
    r.false_suspicions = run.false_suspicions;
    r.unexpected_exits = run.unexpected_exits;
    r.missing_reports = run.missing_reports;
    r.node_cpu_us = run.node_user_cpu_us + run.node_sys_cpu_us;
    r.voluntary_switches = run.node_voluntary_switches;
    r.involuntary_switches = run.node_involuntary_switches;
    r.peak_rss_mb = static_cast<double>(run.node_max_rss_kb) / 1024.0;
    if (run.trace) {
      r.trace_causal_violations = run.trace->causal_violations;
      r.first_round_waves = first_round_waves(scfg.report_dir);
      double pacing_sum = 0, grace_sum = 0, resend_sum = 0, wire_sum = 0;
      std::size_t observers_total = 0;
      for (const obs::CrashTimeline& ct : run.trace->crashes) {
        LiveResult::CrashBreakdown b;
        b.victim = ct.victim;
        b.observers = ct.observers.size();
        b.undetected = ct.undetected;
        double lat = 0, pace = 0, grace = 0, resend = 0, wire = 0;
        for (const obs::ObserverBreakdown& ob : ct.observers) {
          lat += static_cast<double>(ob.latency_ns);
          pace += static_cast<double>(ob.pacing_ns);
          grace += static_cast<double>(ob.grace_ns);
          resend += static_cast<double>(ob.resend_wait_ns);
          wire += static_cast<double>(ob.wire_ns);
        }
        if (!ct.observers.empty()) {
          const auto k = static_cast<double>(ct.observers.size());
          b.latency_mean_ms = lat / k / 1e6;
          b.pacing_mean_ms = pace / k / 1e6;
          b.grace_mean_ms = grace / k / 1e6;
          b.resend_wait_mean_ms = resend / k / 1e6;
          b.wire_mean_ms = wire / k / 1e6;
        }
        pacing_sum += pace;
        grace_sum += grace;
        resend_sum += resend;
        wire_sum += wire;
        observers_total += ct.observers.size();
        r.breakdowns.push_back(b);
      }
      if (observers_total > 0) {
        const auto k = static_cast<double>(observers_total);
        r.pacing_mean_ms = pacing_sum / k / 1e6;
        r.grace_mean_ms = grace_sum / k / 1e6;
        r.resend_wait_mean_ms = resend_sum / k / 1e6;
        r.wire_mean_ms = wire_sum / k / 1e6;
      }
    }
    results.push_back(r);

    std::cerr << "[exp_live]   " << run.rounds << " rounds total, "
              << run.detection_latencies.count() << " detections, complete="
              << (run.strong_completeness ? "yes" : "no") << "\n";
  }

  Table table({"n", "f", "seed", "delta", "kills", "det_mean_s", "det_p99_s",
               "pace_ms", "grace_ms", "resend_ms", "wire_ms", "rtt_p50_ms",
               "complete", "false_susp", "B_per_query", "wire_B_per_q",
               "delta_q", "full_q", "need_full", "trunc", "errs",
               "first_waves", "peak_rss_mb"});
  for (const auto& r : results) {
    table.add_row({Table::num(std::uint64_t{r.n}),
                   Table::num(std::uint64_t{r.f}), Table::num(r.seed),
                   r.delta ? "yes" : "no",
                   Table::num(std::uint64_t{r.crashes}),
                   Table::num(r.detection_mean_s),
                   Table::num(r.detection_p99_s),
                   Table::num(r.pacing_mean_ms),
                   Table::num(r.grace_mean_ms),
                   Table::num(r.resend_wait_mean_ms),
                   Table::num(r.wire_mean_ms),
                   Table::num(round_rtt_ms(r, 0.50)),
                   r.strong_completeness ? "yes" : "no",
                   Table::num(std::uint64_t{r.false_suspicions}),
                   Table::num(per_query(r, "rt.query_bytes_sent")),
                   Table::num(per_query(r, "udp.bytes_sent")),
                   Table::num(count(r, "rt.delta_queries_sent")),
                   Table::num(count(r, "rt.full_queries_sent")),
                   Table::num(count(r, "rt.need_full_sent") +
                              count(r, "rt.need_full_received")),
                   Table::num(count(r, "udp.truncated")),
                   Table::num(count(r, "udp.recv_errors")),
                   Table::num(std::uint64_t{r.first_round_waves}),
                   Table::num(r.peak_rss_mb)});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return write_json(results, out) ? 0 : 1;
}
