// live-crash-n16 / live-lossy-n16: 16 mmrfd-node processes over loopback
// UDP (100 ms pacing, delta encoding), driven by live::Supervisor in
// back-to-back cluster episodes. The lossy variant adds FaultyTransport
// drop at 1%.
//
// Rounds are closed loop (each node paces its own). The crash schedule is
// open loop: every episode SIGKILLs three nodes at planned offsets whatever
// the cluster state. Every observer detects a crash within a millisecond of
// the others, at the end of the round after the one the crash fell in, so
// detection latency is set by the crash's phase in the round cycle. The
// planned kills are therefore stratified over that phase: the run's kill
// offsets cover one pacing period evenly (three strata per episode, one
// sub-stratum per episode, seeded offset), which keeps the pooled median
// steady from seed to seed. The episode count follows from --seconds and
// never drops below what puts 10 detection samples beyond p95.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <variant>

#include "bench.h"
#include "common/rng.h"
#include "live/report.h"
#include "live/supervisor.h"
#include "metrics/analysis.h"
#include "metrics/event_log.h"
#include "obs/trace_assembler.h"
#include "runtime/cluster.h"
#include "runtime/crash_plan.h"
#include "sim/simulation.h"

namespace perfbench {

namespace {

using mmrfd::from_millis;
using mmrfd::from_seconds;
using mmrfd::to_seconds;

struct LiveShape {
  std::uint32_t n{16};
  std::uint32_t f{4};
  double pacing_s{0.1};
  std::uint32_t kills{3};
  /// Kills start after this, and false suspicions before it are start-up.
  double warmup_s{1.0};
  double horizon_s{2.5};
  /// Wall time of one episode: the horizon plus shutdown and harvest.
  double episode_s{2.65};
  /// Clusters run side by side in an untraced run.
  std::size_t lanes{3};
  /// Pooled detection samples needed for 10 beyond p95.
  std::size_t min_samples{200};
};

LiveShape shape_for(bool toy) {
  LiveShape s;
  if (toy) {
    s.n = 6;
    s.f = 1;
    s.kills = 1;
    s.horizon_s = 2.0;
    s.min_samples = 1;
  }
  return s;
}

struct EpisodePlan {
  std::vector<mmrfd::live::CrashEvent> schedule;
  std::uint16_t base_port{0};
  std::uint64_t fault_seed{0};
};

EpisodePlan plan_episode(const LiveShape& s, std::uint64_t seed,
                         std::size_t episode, std::size_t episodes) {
  EpisodePlan p;
  mmrfd::Xoshiro256 rng(mmrfd::derive_seed(seed, "perfbench.live", episode));
  std::vector<std::uint32_t> ids(s.n);
  for (std::uint32_t i = 0; i < s.n; ++i) ids[i] = i;
  // Start-up takes the same path every episode, so the round grid sits at
  // about the same offset and the planned offsets set the crash phases.
  // Kill j of episode e lands at phase (j + (e + u) / episodes) / kills of
  // the pacing period, u seeded once per run.
  const double u =
      mmrfd::Xoshiro256(mmrfd::derive_seed(seed, "perfbench.phase"))
          .next_double();
  const double stratum = s.pacing_s / s.kills;
  const double phase = (static_cast<double>(episode) + u) /
                       static_cast<double>(episodes) * stratum;
  for (std::uint32_t j = 0; j < s.kills; ++j) {
    const auto pick = j + rng.next_below(s.n - j);
    std::swap(ids[j], ids[pick]);
    mmrfd::live::CrashEvent ev;
    ev.victim = ProcessId{ids[j]};
    ev.at = from_seconds(s.warmup_s + phase + j * (s.pacing_s + stratum));
    p.schedule.push_back(ev);
  }
  // Ports stride per episode (and per seed) so back-to-back clusters never
  // bind the range a straggler of the previous one may still hold.
  const std::uint64_t slot = (seed % 97 * 101 + episode) % 280;
  p.base_port = static_cast<std::uint16_t>(50000 + slot * 32);
  // mmrfd-node parses --fault-seed as a signed 64-bit integer and the
  // supervisor adds a per-node stride to it: keep it well inside that range.
  p.fault_seed = mmrfd::derive_seed(seed, "perfbench.fault", episode) >> 32;
  return p;
}

struct LiveEpisode {
  bool traced{false};
  double setup_s{-1};
  double rss_mb{0};
  double cpu_s{0};
  std::uint64_t rounds{0};
  /// Rounds and report time of the never-killed nodes after warm-up.
  std::uint64_t survivor_rounds{0};
  double survivor_seconds{0};
  std::uint64_t wire_bytes{0};
  std::uint64_t datagrams{0};
  mmrfd::SampleSet detection_ms;
  std::uint64_t pairs{0};
  std::uint64_t missed{0};
  bool complete{false};
  std::uint64_t false_suspicions{0};
  double correct_node_minutes{0};
  std::vector<double> kill_lag_ms;
  std::size_t kills_planned{0};
  std::size_t unexpected_exits{0};
  std::size_t missing_reports{0};
  std::uint64_t malformed{0};
  mmrfd::obs::RegistrySnapshot metrics;
  // Traced episodes only.
  bool assembled{false};
  double assemble_s{0};
  std::size_t records{0};
  std::size_t causal_violations{0};
  std::vector<mmrfd::obs::ObserverBreakdown> observers;
  std::size_t sum_mismatches{0};
  std::uint64_t giveup_skips{0};
  std::uint64_t query_tx{0};
};

/// What the probe reads from outside a running cluster.
struct Probe {
  double ready_s{-1};  ///< until every node's report shows a round
  double rss_mb{0};    ///< largest node VmHWM shortly before the horizon
  /// Each node's (rounds, snapshot_ns) from its first report written after
  /// the warm-up: the start of the steady-state round-rate window.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> warm;
};

void probe_cluster(std::stop_token stop, const std::string& dir,
                   const LiveShape& s,
                   std::chrono::steady_clock::time_point t0, Probe* out) {
  const auto report = [&](std::uint32_t i) {
    return mmrfd::live::read_report_file(dir + "/node" + std::to_string(i) +
                                         ".g0.bin");
  };
  std::vector<bool> ready(s.n, false);
  std::uint32_t ready_count = 0;
  bool warm_done = false, rss_done = false;
  out->warm.assign(s.n, {0, 0});
  while (!stop.stop_requested() && seconds_since(t0) < s.horizon_s + 5.0) {
    for (std::uint32_t i = 0; i < s.n && ready_count < s.n; ++i) {
      if (ready[i]) continue;
      const auto r = report(i);
      if (r && r->rounds >= 1) {
        ready[i] = true;
        ++ready_count;
      }
    }
    if (ready_count == s.n && out->ready_s < 0) {
      out->ready_s = seconds_since(t0);
    }
    if (!warm_done && seconds_since(t0) >= s.warmup_s) {
      for (std::uint32_t i = 0; i < s.n; ++i) {
        if (const auto r = report(i)) out->warm[i] = {r->rounds, r->snapshot_ns};
      }
      warm_done = true;
    }
    if (!rss_done && seconds_since(t0) >= s.horizon_s - 0.25) {
      for (const int pid : child_pids("mmrfd-node")) {
        out->rss_mb = std::max(out->rss_mb, peak_rss_mb(pid));
      }
      rss_done = true;
    }
    if (ready_count == s.n && warm_done && rss_done) return;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(ready_count < s.n ? 5 : 20));
  }
}

/// metrics::Analysis over the harvested reports, as the supervisor does it,
/// keeping the per-pair outcomes and suspicion instants it summarizes away.
void analyse(const mmrfd::live::LiveRunResult& run, const LiveShape& s,
             LiveEpisode& ep) {
  mmrfd::sim::Simulation clock;  // never advanced; EventLog needs a clock
  mmrfd::metrics::EventLog log(clock);
  std::vector<mmrfd::metrics::SuspicionEvent> events;
  for (const auto& node : run.nodes) {
    for (const auto& r : node.reports) {
      for (const auto& ev : r.events) {
        if (ev.kind > 2 || ev.subject >= s.n) continue;
        events.push_back(mmrfd::metrics::SuspicionEvent{
            Duration{static_cast<std::int64_t>(ev.when_ns)}, node.id,
            ProcessId{ev.subject},
            static_cast<mmrfd::metrics::SuspicionEventKind>(ev.kind), ev.tag});
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) { return a.when < b.when; });
  for (const auto& ev : events) log.append(ev);
  for (const auto& c : run.crashes) log.record_crash_at(c.victim, c.at);

  const mmrfd::metrics::Analysis analysis(log, s.n, run.horizon);
  for (const auto& d : analysis.detections()) {
    ++ep.pairs;
    if (const auto latency = d.latency()) {
      ep.detection_ms.add(to_seconds(*latency) * 1e3);
    } else {
      ++ep.missed;
    }
  }
  ep.complete = analysis.strong_completeness();
  for (const auto& fs : analysis.false_suspicions()) {
    if (to_seconds(fs.suspected_at) >= s.warmup_s) ++ep.false_suspicions;
  }
  ep.correct_node_minutes = static_cast<double>(analysis.correct().size()) *
                            (s.horizon_s - s.warmup_s) / 60.0;
}

/// Assembles the harvested flight rings (timed), checks the attribution
/// sums, and counts give-up skips against first-wave query sends.
void assemble(const std::string& dir, LiveEpisode& ep, Tracer& tracer) {
  const auto t0 = std::chrono::steady_clock::now();
  std::optional<mmrfd::obs::AssembledTrace> trace;
  {
    auto span = tracer.span("obs.assemble_from_dir");
    trace = mmrfd::obs::assemble_from_dir(dir);
  }
  ep.assemble_s = seconds_since(t0);
  if (!trace) return;
  ep.assembled = true;
  ep.records = trace->records;
  ep.causal_violations = trace->causal_violations;
  for (const auto& crash : trace->crashes) {
    for (const auto& ob : crash.observers) {
      if (ob.pacing_ns + ob.resend_wait_ns + ob.wire_ns != ob.latency_ns) {
        ++ep.sum_mismatches;
      }
      ep.observers.push_back(ob);
    }
  }
  auto span = tracer.span("obs.load_trace_records");
  const auto manifest = mmrfd::obs::load_manifest(
      dir + "/" + std::string(mmrfd::obs::kTraceManifestName));
  if (!manifest) return;
  for (const auto& entry : manifest->traces) {
    const auto records = mmrfd::obs::load_trace_records(dir + "/" + entry.file);
    if (!records) continue;
    for (const auto& r : *records) {
      if (r.kind == mmrfd::obs::TraceKind::kGiveUpSkip) ++ep.giveup_skips;
      if (r.kind == mmrfd::obs::TraceKind::kQueryTx) ++ep.query_tx;
    }
  }
}

LiveEpisode run_episode(const LiveShape& s, const EpisodePlan& plan,
                        double drop_rate, bool traced,
                        const std::string& dir, Tracer& tracer) {
  Tracer off(false, 0);
  Tracer& t = traced ? tracer : off;
  auto episode_span = t.span("live.episode");
  LiveEpisode ep;
  ep.traced = traced;
  ep.kills_planned = plan.schedule.size();

  mmrfd::live::SupervisorConfig cfg;
  cfg.n = s.n;
  cfg.f = s.f;
  cfg.base_port = plan.base_port;
  cfg.pacing = from_seconds(s.pacing_s);
  cfg.delta = true;
  cfg.fault_drop = drop_rate;
  cfg.fault_seed = plan.fault_seed;
  cfg.trace = traced;
  cfg.trace_capacity = 16384;
  cfg.node_binary = PERFBENCH_NODE_BIN;
  cfg.report_dir = dir;

  mmrfd::live::LiveRunResult run;
  Probe probe;
  const double cpu0 = children_cpu_s();
  {
    mmrfd::live::Supervisor supervisor(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    std::jthread prober(probe_cluster, dir, std::cref(s), t0, &probe);
    auto span = t.span("live.Supervisor.run");
    run = supervisor.run(plan.schedule, from_seconds(s.horizon_s));
  }
  ep.cpu_s = children_cpu_s() - cpu0;
  ep.setup_s = probe.ready_s;
  ep.rss_mb = probe.rss_mb;

  ep.unexpected_exits = run.unexpected_exits;
  ep.missing_reports = run.missing_reports;
  ep.malformed = run.malformed;
  ep.rounds = run.rounds;
  ep.wire_bytes = run.wire_bytes_sent;
  ep.datagrams = run.datagrams_sent;
  ep.metrics = run.metrics;
  // Steady-state round rate: never-killed nodes, from their first report
  // after the warm-up to their final one.
  for (const auto& node : run.nodes) {
    const auto& [warm_rounds, warm_ns] = probe.warm.at(node.id.value);
    if (node.planned_kill || node.reports.empty() || warm_ns == 0) continue;
    const auto& last = node.reports.back();
    if (last.snapshot_ns <= warm_ns) continue;
    ep.survivor_rounds += last.rounds - warm_rounds;
    ep.survivor_seconds +=
        static_cast<double>(last.snapshot_ns - warm_ns) / 1e9;
  }
  for (const auto& planned : plan.schedule) {
    for (const auto& actual : run.crashes) {
      if (actual.victim == planned.victim) {
        ep.kill_lag_ms.push_back(to_seconds(actual.at - planned.at) * 1e3);
      }
    }
  }
  {
    auto span = t.span("metrics.Analysis");
    analyse(run, s, ep);
  }
  if (traced) assemble(dir, ep, t);
  return ep;
}

/// The workload's message stream for the core/codec replay: the nodes'
/// own datagrams never pass through this process, so an in-process
/// MmrCluster with the same n, f, pacing, encoding, loss and crash
/// schedule stands in for them.
std::vector<mmrfd::runtime::MmrMessage> shadow_messages(
    const LiveShape& s, const EpisodePlan& plan, double drop_rate,
    std::uint64_t seed) {
  mmrfd::runtime::MmrClusterConfig cfg;
  cfg.n = s.n;
  cfg.f = s.f;
  cfg.seed = mmrfd::derive_seed(seed, "perfbench.shadow");
  cfg.pacing = from_seconds(s.pacing_s);
  cfg.mean_delay = from_millis(0.2);
  cfg.delta_queries = true;
  cfg.faults.loss_rate = drop_rate;
  mmrfd::runtime::MmrCluster cluster(cfg);
  auto captured = std::make_shared<std::vector<mmrfd::runtime::MmrMessage>>();
  cluster.network().set_size_fn(
      [captured](const mmrfd::runtime::MmrMessage& m) {
        captured->push_back(m);
        return std::size_t{0};
      });
  mmrfd::runtime::CrashPlan crashes;
  for (const auto& ev : plan.schedule) {
    crashes.entries.push_back({ev.victim, ev.at});
  }
  cluster.start(crashes);
  cluster.run_for(from_seconds(s.horizon_s));
  return *captured;
}

}  // namespace

void run_live(const RunOptions& opt, double drop_rate, Sheet& sheet,
              Tracer& tracer) {
  const LiveShape s = shape_for(opt.toy);
  auto run_span = tracer.span(drop_rate > 0 ? "run.live-lossy-n16"
                                            : "run.live-crash-n16");
  // Untraced runs pool more kills by running clusters side by side on
  // disjoint port ranges (each cluster uses ~0.1 core). The traced run
  // keeps one cluster at a time, so per-episode child CPU stays separable
  // for the trace-overhead figure and spans come from one thread.
  const std::size_t lanes = opt.trace ? 1 : s.lanes;
  const std::size_t samples_per_episode = s.kills * (s.n - s.kills);
  const std::size_t episodes = std::max<std::size_t>(
      {2, static_cast<std::size_t>(opt.seconds / s.episode_s) * lanes,
       (s.min_samples + samples_per_episode - 1) / samples_per_episode});

  std::vector<EpisodePlan> plans;
  for (std::size_t e = 0; e < episodes; ++e) {
    plans.push_back(plan_episode(s, opt.seed, e, episodes));
  }
  std::vector<LiveEpisode> eps(episodes);
  std::vector<std::exception_ptr> errors(lanes);
  const auto run_lane = [&](std::size_t lane) {
    try {
      for (std::size_t e = lane; e < episodes; e += lanes) {
        const bool traced = opt.trace && e % 2 == 1;
        const std::string dir = opt.work_dir + "/ep" + std::to_string(e);
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        eps[e] = run_episode(s, plans[e], drop_rate, traced, dir, tracer);
        std::filesystem::remove_all(dir, ec);
      }
    } catch (...) {
      errors[lane] = std::current_exception();
    }
  };
  const double cpu0 = children_cpu_s();
  {
    std::vector<std::jthread> workers;
    for (std::size_t lane = 1; lane < lanes; ++lane) {
      workers.emplace_back(run_lane, lane);
    }
    run_lane(0);
  }
  const double cpu_s = children_cpu_s() - cpu0;
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  // --- correctness ---------------------------------------------------------
  std::size_t unexpected = 0, missing = 0, kills = 0, planned = 0;
  std::uint64_t malformed = 0;
  bool complete = true;
  mmrfd::obs::RegistrySnapshot all_metrics;
  for (const LiveEpisode& ep : eps) {
    unexpected += ep.unexpected_exits;
    missing += ep.missing_reports;
    malformed += ep.malformed;
    kills += ep.kill_lag_ms.size();
    planned += ep.kills_planned;
    complete = complete && ep.complete && ep.missed == 0 && ep.pairs > 0;
    sheet.attempted += ep.pairs;
    sheet.failed += ep.missed;
    all_metrics.merge(ep.metrics);
  }
  sheet.check(complete, "strong completeness, detection_miss_share = 0 in "
                        "all " + std::to_string(eps.size()) + " episodes");
  sheet.check(unexpected == 0 && missing == 0 && malformed == 0,
              "no unexpected exits (" + std::to_string(unexpected) +
                  "), missing reports (" + std::to_string(missing) +
                  ") or malformed datagrams (" + std::to_string(malformed) +
                  ")");
  sheet.check(kills == planned, "every planned kill executed and stamped (" +
                                    std::to_string(kills) + "/" +
                                    std::to_string(planned) + ")");
  const double sent =
      static_cast<double>(all_metrics.counter_value("fault.sent"));
  const double dropped =
      static_cast<double>(all_metrics.counter_value("fault.dropped"));
  if (drop_rate > 0) {
    // 0.2 percentage points, or four binomial standard errors when too few
    // datagrams were sent for that (self-test size).
    const double share = sent > 0 ? dropped / sent : 0;
    const double tolerance = std::max(
        0.002, 4 * std::sqrt(drop_rate * (1 - drop_rate) / std::max(1.0, sent)));
    sheet.check(std::abs(share - drop_rate) <= tolerance,
                "fault.drop_share " + std::to_string(share) + " within " +
                    std::to_string(tolerance) + " of " +
                    std::to_string(drop_rate));
  } else {
    sheet.check(sent == 0, "no fault layer in the stack");
  }

  // --- end-to-end (untraced episodes) ----------------------------------------
  mmrfd::SampleSet detection_ms;
  double fs = 0, fs_minutes = 0, rounds = 0, surv_rounds = 0, surv_s = 0;
  double wire = 0, dgrams = 0;
  std::uint64_t pairs = 0, missed = 0;
  std::vector<double> cpu_us, setups, rss;
  for (const LiveEpisode& ep : eps) {
    if (ep.traced) continue;
    for (const double v : ep.detection_ms.samples()) detection_ms.add(v);
    fs += static_cast<double>(ep.false_suspicions);
    fs_minutes += ep.correct_node_minutes;
    rounds += static_cast<double>(ep.rounds);
    surv_rounds += static_cast<double>(ep.survivor_rounds);
    surv_s += ep.survivor_seconds;
    wire += static_cast<double>(ep.wire_bytes);
    dgrams += static_cast<double>(ep.datagrams);
    pairs += ep.pairs;
    missed += ep.missed;
    cpu_us.push_back(ep.cpu_s * 1e6 / static_cast<double>(ep.rounds));
    setups.push_back(ep.setup_s);
    rss.push_back(ep.rss_mb);
  }
  mmrfd::SampleSet lags;
  double all_rounds = 0;
  for (const LiveEpisode& ep : eps) {
    for (const double v : ep.kill_lag_ms) lags.add(v);
    all_rounds += static_cast<double>(ep.rounds);
  }
  const auto episodes_basis =
      " of " + std::to_string(setups.size()) + " episodes";
  sheet.check(opt.toy || opt.trace || detection_ms.count() >= s.min_samples,
              "detection tail has >= 10 samples beyond p95 (n=" +
                  std::to_string(detection_ms.count()) + ")");
  sheet.check(std::all_of(setups.begin(), setups.end(),
                          [](double v) { return v > 0; }),
              "every node completed a round in every episode");
  sheet.percentile("detection_p50_ms", detection_ms, 50.0, 1.0, "ms");
  sheet.percentile("detection_p95_ms", detection_ms, 95.0, 1.0, "ms");
  sheet.ratio("detection_miss_share", static_cast<double>(missed),
              static_cast<double>(pairs), "share");
  sheet.ratio("false_suspicions_per_node_min", fs, fs_minutes, "1/min");
  sheet.ratio("rounds_per_node_s", surv_rounds, surv_s, "1/s");
  sheet.ratio("wire_bytes_per_node_round", wire, rounds, "B");
  sheet.ratio("datagrams_per_node_round", dgrams, rounds, "count");
  // Side-by-side clusters share RUSAGE_CHILDREN, so child CPU is taken
  // over the whole run.
  sheet.ratio("cpu_us_per_node_round", cpu_s * 1e6, all_rounds, "us");
  sheet.set("setup_s", median(setups), "s", "median" + episodes_basis);
  sheet.set("peak_rss_mb", median(rss), "MB",
            "largest node VmHWM, median" + episodes_basis);
  sheet.percentile("live.kill_lag_p50_ms", lags, 50.0, 1.0, "ms");
  sheet.set("live.kill_lag_max_ms", lags.empty() ? 0.0 : lags.max(), "ms",
            "n=" + std::to_string(lags.count()));

  if (!opt.trace) return;

  // --- per layer (traced episodes) -------------------------------------------
  mmrfd::obs::RegistrySnapshot m;
  double t_rounds = 0, t_fs = 0, t_fs_minutes = 0, assemble_s = 0;
  double pacing = 0, resend = 0, wire_ms = 0;
  std::vector<double> t_cpu_us, t_setups;
  std::uint64_t skips = 0, query_tx = 0, records = 0, causal = 0;
  std::size_t mismatches = 0, observers = 0, traced = 0;
  bool assembled = true;
  for (const LiveEpisode& ep : eps) {
    if (!ep.traced) continue;
    ++traced;
    m.merge(ep.metrics);
    t_rounds += static_cast<double>(ep.rounds);
    t_fs += static_cast<double>(ep.false_suspicions);
    t_fs_minutes += ep.correct_node_minutes;
    t_cpu_us.push_back(ep.cpu_s * 1e6 / static_cast<double>(ep.rounds));
    t_setups.push_back(ep.setup_s);
    skips += ep.giveup_skips;
    query_tx += ep.query_tx;
    records += ep.records;
    causal += ep.causal_violations;
    mismatches += ep.sum_mismatches;
    assembled = assembled && ep.assembled;
    assemble_s += ep.assemble_s;
    for (const auto& ob : ep.observers) {
      pacing += static_cast<double>(ob.pacing_ns) / 1e6;
      resend += static_cast<double>(ob.resend_wait_ns) / 1e6;
      wire_ms += static_cast<double>(ob.wire_ns) / 1e6;
      ++observers;
    }
  }
  sheet.check(assembled && observers > 0,
              "every traced episode assembled (" + std::to_string(observers) +
                  " observers)");
  sheet.check(mismatches == 0, "pacing + resend_wait + wire == latency for "
                               "every traced observer (" +
                                   std::to_string(mismatches) + " mismatches)");

  sheet.ratio("false_suspicions_per_node_min", t_fs, t_fs_minutes, "1/min");
  const auto* rtt = m.find_histogram("rt.round_rtt_ns");
  const std::string rtt_n = "n=" + std::to_string(rtt ? rtt->count : 0);
  sheet.set("rt.round_rtt_p50_ms", rtt ? rtt->percentile(0.50) / 1e6 : 0.0,
            "ms", rtt_n);
  sheet.set("rt.round_rtt_p99_ms", rtt ? rtt->percentile(0.99) / 1e6 : 0.0,
            "ms", rtt_n);
  const auto counter = [&](const char* name) {
    return static_cast<double>(m.counter_value(name));
  };
  sheet.ratio("rt.resend_waves_per_node_round", counter("rt.resend_waves"),
              t_rounds, "count");
  sheet.ratio("udp.datagrams_received_per_node_round",
              counter("udp.datagrams_received"), t_rounds, "count");
  sheet.set("udp.recv_losses",
            counter("udp.truncated") + counter("udp.recv_errors"), "count",
            "truncated + recv errors");
  sheet.ratio("fault.drop_share", dropped, sent, "share");
  const double queries =
      counter("rt.full_queries_sent") + counter("rt.delta_queries_sent");
  sheet.ratio("codec.bytes_per_query", counter("rt.query_bytes_sent"), queries,
              "B");
  sheet.ratio("codec.full_query_share", counter("rt.full_queries_sent"),
              queries, "share");
  sheet.ratio("codec.need_full_per_node_round", counter("rt.need_full_sent"),
              t_rounds, "count");
  sheet.ratio("core.queries_skipped_share", static_cast<double>(skips),
              static_cast<double>(skips + query_tx), "share");
  sheet.set("live.setup_s", median(t_setups), "s",
            "median of " + std::to_string(t_setups.size()) + " traced episodes");
  const auto per_observer = "mean of n=" + std::to_string(observers);
  const double obs_n = std::max<double>(1.0, static_cast<double>(observers));
  sheet.set("obs.pacing_ms", pacing / obs_n, "ms", per_observer);
  sheet.set("obs.resend_wait_ms", resend / obs_n, "ms", per_observer);
  sheet.set("obs.wire_ms", wire_ms / obs_n, "ms", per_observer);
  sheet.set("obs.assemble_s",
            assemble_s / std::max<double>(1.0, static_cast<double>(traced)),
            "s", "mean of " + std::to_string(traced) + " assemblies");
  sheet.set("obs.records_assembled", static_cast<double>(records), "count");
  sheet.set("obs.causal_violations", static_cast<double>(causal), "count");
  sheet.set("obs.trace_overhead_cpu_us_per_node_round",
            median(t_cpu_us) - median(cpu_us), "us",
            "traced minus untraced episode medians");

  ReplayShape rs;
  rs.n = s.n;
  rs.f = s.f;
  rs.delta = true;
  for (const auto& ev : plans.front().schedule) rs.silent.push_back(ev.victim);
  rs.seed = opt.seed;
  const auto msgs = shadow_messages(s, plans.front(), drop_rate, opt.seed);
  const ReplayCosts rc = replay(msgs, rs, tracer);
  sheet.check(rc.roundtrip_ok, "codec round trip exact on " +
                                   std::to_string(rc.messages) +
                                   " shadow-cluster messages");
  const std::string basis = std::to_string(rc.messages) + " shadow msgs";
  sheet.set("core.query_for_ns", rc.query_for_ns, "ns", basis);
  sheet.set("core.on_query_ns", rc.on_query_ns, "ns", basis);
  sheet.set("core.on_response_ns", rc.on_response_ns, "ns", basis);
  sheet.set("core.finish_round_ns", rc.finish_round_ns, "ns", basis);
  sheet.set("codec.encode_ns", rc.encode_ns, "ns", basis);
  sheet.set("codec.decode_ns", rc.decode_ns, "ns", basis);

  // Layers this workload does not exercise read zero.
  sheet.set("sim.events_fired", 0.0, "count", "not exercised");
  sheet.set("net.messages_sent", 0.0, "count", "not exercised");
  sheet.set("net.bytes_sent", 0.0, "B", "not exercised");
  sheet.set("sim.run_s", 0.0, "s", "not exercised");
  sheet.set("sim.ns_per_event", 0.0, "ns", "not exercised");
  sheet.set("sim_events_per_s", 0.0, "1/s", "not exercised");
  sheet.set("runtime.cluster_setup_s", 0.0, "s", "not exercised");
  sheet.set("sim.round_rtt_p50_ms", 0.0, "ms", "not exercised");
  sheet.set("sim.round_rtt_p99_ms", 0.0, "ms", "not exercised");
  sheet.set("obs.trace_overhead_sim_events_per_s", 0.0, "1/s",
            "not exercised");
}

}  // namespace perfbench
