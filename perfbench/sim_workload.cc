// sim-churn-n1000: the serial simulator at n = 1000, f = 250, with f/2
// crash-stops, a 1% delay spike, delta encoding, 1 ms exponential delays
// and 1 s pacing. Closed loop: every host paces its own rounds. All work is
// the sim event heap, the net fan-out and DetectorCore merges of large
// tagged sets; no sockets.
//
// One run repeats the same fixed-seed episode until --seconds is used up
// (at least twice): the repeats must agree on every counter, and the wall
// and CPU figures are their medians. A traced run alternates untraced and
// traced episodes, so the tracing overhead is the difference between them.
#include <algorithm>
#include <chrono>
#include <memory>
#include <variant>

#include "bench.h"
#include "common/rng.h"
#include "metrics/analysis.h"
#include "obs/metrics_registry.h"
#include "runtime/cluster.h"
#include "runtime/crash_plan.h"
#include "transport/codec.h"

namespace perfbench {

namespace {

using mmrfd::from_millis;
using mmrfd::from_seconds;
using mmrfd::to_seconds;
using mmrfd::core::QueryMessage;
using mmrfd::core::ResponseMessage;
using mmrfd::runtime::MmrMessage;

struct SimShape {
  std::uint32_t n{1000};
  double horizon_s{8.0};
  // Crashes land in [crash_from, crash_to) and are all detected before the
  // spike starts, so a spiked observer never stalls a detection past the
  // horizon. The spike sits at 65–75% of the horizon, as in exp_scale.
  double crash_from_s{1.6};
  double crash_to_s{2.8};
  double spike_from_s{5.2};
  double spike_to_s{6.0};
  /// False suspicions before this instant are start-up, not accuracy.
  double warmup_s{1.0};
  /// Every k-th message is captured for the core/codec replay.
  std::uint64_t capture_every{151};
};

SimShape shape_for(bool toy) {
  SimShape s;
  if (toy) {
    s.n = 100;
    s.capture_every = 7;
  }
  return s;
}

mmrfd::runtime::MmrClusterConfig cluster_config(const SimShape& s,
                                                std::uint64_t seed) {
  mmrfd::runtime::MmrClusterConfig cfg;
  cfg.n = s.n;
  cfg.f = s.n / 4;
  cfg.seed = seed;
  cfg.pacing = from_millis(1000);
  cfg.pacing_jitter = 0.1;
  cfg.mean_delay = from_millis(1);
  cfg.delay_preset = mmrfd::net::DelayPreset::kExponential;
  cfg.delta_queries = true;
  mmrfd::runtime::SpikeSpec spike;
  spike.start = from_seconds(s.spike_from_s);
  spike.end = from_seconds(s.spike_to_s);
  spike.factor = 2000.0;
  for (std::uint32_t i = 0; i < std::max<std::uint32_t>(1, s.n / 100); ++i) {
    spike.affected.push_back(ProcessId{i});
  }
  cfg.spike = spike;
  return cfg;
}

/// Counts taken at the network size hook (the net layer's only per-message
/// callback), plus the sampled capture for the replay.
struct WireTally {
  std::uint64_t queries{0};
  std::uint64_t full_queries{0};
  std::uint64_t query_bytes{0};
  std::uint64_t need_full{0};
  std::uint64_t seen{0};
  std::uint64_t capture_every{0};  ///< 0 = no capture
  std::vector<MmrMessage> captured;
};

struct SimEpisode {
  bool traced{false};
  double setup_s{0};
  double run_wall_s{0};
  double run_cpu_s{0};
  std::uint64_t events{0};
  std::uint64_t messages{0};
  std::uint64_t bytes{0};
  std::uint64_t rounds{0};
  std::uint64_t skipped{0};
  double node_seconds{0};
  std::shared_ptr<WireTally> tally;
  mmrfd::SampleSet detection_s;
  std::uint64_t pairs{0};
  std::uint64_t missed{0};
  bool complete{false};
  std::uint64_t false_suspicions{0};
  double correct_node_minutes{0};
  mmrfd::obs::RegistrySnapshot registry;
};

SimEpisode run_episode(const SimShape& s, std::uint64_t seed,
                       const mmrfd::runtime::CrashPlan& plan, bool traced,
                       bool capture, Tracer& tracer) {
  Tracer off(false, 0);
  Tracer& t = traced ? tracer : off;
  SimEpisode ep;
  ep.traced = traced;
  auto episode_span = t.span("sim.episode");

  mmrfd::runtime::MmrClusterConfig cfg = cluster_config(s, seed);
  mmrfd::obs::MetricsRegistry registry;
  if (traced) cfg.registry = &registry;

  const auto t0 = std::chrono::steady_clock::now();
  std::unique_ptr<mmrfd::runtime::MmrCluster> cluster;
  {
    auto span = t.span("runtime.MmrCluster.ctor");
    cluster = std::make_unique<mmrfd::runtime::MmrCluster>(cfg);
  }
  ep.tally = std::make_shared<WireTally>();
  ep.tally->capture_every = capture ? s.capture_every : 0;
  cluster->network().set_size_fn([tally = ep.tally](const MmrMessage& m) {
    const std::size_t size = std::visit(
        [](const auto& msg) { return mmrfd::transport::wire_size(msg); }, m);
    if (const auto* q = std::get_if<QueryMessage>(&m)) {
      ++tally->queries;
      tally->query_bytes += size;
      if (!q->is_delta()) ++tally->full_queries;
    } else if (std::get<ResponseMessage>(m).need_full) {
      ++tally->need_full;
    }
    if (tally->capture_every > 0 && ++tally->seen % tally->capture_every == 0) {
      tally->captured.push_back(m);
    }
    return size;
  });
  {
    auto span = t.span("runtime.MmrCluster.start");
    cluster->start(plan);
  }
  ep.setup_s = seconds_since(t0);

  const double cpu0 = process_cpu_s();
  const auto w0 = std::chrono::steady_clock::now();
  {
    auto span = t.span("runtime.MmrCluster.run_for");
    cluster->run_for(from_seconds(s.horizon_s));
  }
  ep.run_wall_s = seconds_since(w0);
  ep.run_cpu_s = process_cpu_s() - cpu0;

  ep.events = cluster->simulation().events_fired();
  ep.messages = cluster->network().stats().messages_sent;
  ep.bytes = cluster->network().stats().bytes_sent;
  std::vector<double> crash_at(s.n, s.horizon_s);
  for (const auto& e : plan.entries) {
    crash_at[e.victim.value] = std::min(crash_at[e.victim.value],
                                        to_seconds(e.when));
  }
  for (std::uint32_t i = 0; i < s.n; ++i) {
    const auto& core = cluster->host(ProcessId{i}).detector();
    ep.rounds += core.rounds_completed();
    ep.skipped += core.queries_skipped();
    ep.node_seconds += crash_at[i];
  }

  {
    auto span = t.span("metrics.Analysis");
    const mmrfd::metrics::Analysis analysis(cluster->log(), s.n,
                                            from_seconds(s.horizon_s));
    for (const auto& d : analysis.detections()) {
      ++ep.pairs;
      if (const auto latency = d.latency()) {
        ep.detection_s.add(to_seconds(*latency));
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
  if (traced) ep.registry = registry.snapshot();
  {
    auto span = t.span("runtime.MmrCluster.dtor");
    cluster.reset();
  }
  return ep;
}

/// Cluster construction + start() alone, for the set-up median.
double setup_once(const SimShape& s, std::uint64_t seed,
                  const mmrfd::runtime::CrashPlan& plan) {
  const auto t0 = std::chrono::steady_clock::now();
  mmrfd::runtime::MmrCluster cluster(cluster_config(s, seed));
  cluster.start(plan);
  return seconds_since(t0);
}

}  // namespace

void run_sim_churn(const RunOptions& opt, Sheet& sheet, Tracer& tracer) {
  const SimShape s = shape_for(opt.toy);
  const std::uint32_t f = s.n / 4;
  const auto plan = mmrfd::runtime::CrashPlan::uniform(
      f / 2, s.n, from_seconds(s.crash_from_s), from_seconds(s.crash_to_s),
      mmrfd::derive_seed(opt.seed, "perfbench.crash_plan"));
  const auto start = std::chrono::steady_clock::now();
  auto run_span = tracer.span("run.sim-churn-n1000");

  std::vector<double> setups;
  for (int i = 0; i < 10; ++i) setups.push_back(setup_once(s, opt.seed, plan));

  std::vector<SimEpisode> eps;
  double longest = 0;
  bool captured = false;
  while (eps.size() < 2 ||
         (eps.size() < 16 && seconds_since(start) + longest <= opt.seconds)) {
    const bool traced = opt.trace && eps.size() % 2 == 1;
    const bool capture = traced && !captured;
    const auto e0 = std::chrono::steady_clock::now();
    eps.push_back(run_episode(s, opt.seed, plan, traced, capture, tracer));
    captured = captured || capture;
    longest = std::max(longest, seconds_since(e0));
    setups.push_back(eps.back().setup_s);
  }

  // --- correctness ---------------------------------------------------------
  const SimEpisode& first = eps.front();
  bool same = true;
  bool complete = true;
  for (const SimEpisode& ep : eps) {
    same = same && ep.events == first.events &&
           ep.messages == first.messages && ep.bytes == first.bytes &&
           ep.rounds == first.rounds;
    complete = complete && ep.complete && ep.missed == 0;
    sheet.attempted += ep.pairs;
    sheet.failed += ep.missed;
  }
  sheet.check(same, "fixed-seed sim counters (events, messages, bytes, "
                    "rounds) identical across " +
                        std::to_string(eps.size()) + " repeated episodes");
  sheet.check(complete && first.pairs > 0,
              "strong completeness, detection_miss_share = 0 over " +
                  std::to_string(first.pairs) + " pairs per episode");

  // --- end-to-end ----------------------------------------------------------
  std::vector<double> cpu_us, eps_rate, cpu_us_traced, eps_rate_traced;
  for (const SimEpisode& ep : eps) {
    const double cpu = ep.run_cpu_s * 1e6 / static_cast<double>(ep.rounds);
    const double rate = static_cast<double>(ep.events) / ep.run_wall_s;
    (ep.traced ? cpu_us_traced : cpu_us).push_back(cpu);
    (ep.traced ? eps_rate_traced : eps_rate).push_back(rate);
  }
  sheet.percentile("detection_p50_ms", first.detection_s, 50.0, 1e3, "ms");
  sheet.percentile("detection_p95_ms", first.detection_s, 95.0, 1e3, "ms");
  sheet.ratio("detection_miss_share", static_cast<double>(first.missed),
              static_cast<double>(first.pairs), "share");
  sheet.ratio("false_suspicions_per_node_min",
              static_cast<double>(first.false_suspicions),
              first.correct_node_minutes, "1/min");
  sheet.ratio("rounds_per_node_s", static_cast<double>(first.rounds),
              first.node_seconds, "1/s");
  sheet.ratio("wire_bytes_per_node_round", static_cast<double>(first.bytes),
              static_cast<double>(first.rounds), "B");
  sheet.ratio("datagrams_per_node_round", static_cast<double>(first.messages),
              static_cast<double>(first.rounds), "count");
  sheet.set("cpu_us_per_node_round", median(cpu_us), "us",
            "median of " + std::to_string(cpu_us.size()) + " episodes");
  sheet.set("sim_events_per_s", median(eps_rate), "1/s",
            "median of " + std::to_string(eps_rate.size()) + " episodes");
  sheet.set("setup_s", median(setups), "s",
            "median of " + std::to_string(setups.size()) + " set-ups");
  sheet.set("peak_rss_mb", peak_rss_mb(), "MB", "driver VmHWM");

  if (!opt.trace) return;

  // --- per layer (traced episodes) -----------------------------------------
  const SimEpisode* traced = nullptr;
  for (const SimEpisode& ep : eps) {
    if (ep.traced && !ep.tally->captured.empty()) traced = &ep;
  }
  if (traced == nullptr) {
    sheet.check(false, "traced sim episode ran");
    return;
  }
  std::vector<double> traced_wall;
  for (const SimEpisode& ep : eps) {
    if (ep.traced) traced_wall.push_back(ep.run_wall_s);
  }
  const double run_s = median(traced_wall);
  sheet.set("sim.events_fired", static_cast<double>(traced->events), "count");
  sheet.set("sim.run_s", run_s, "s",
            "median of " + std::to_string(traced_wall.size()) + " episodes");
  sheet.ratio("sim.ns_per_event", run_s * 1e9,
              static_cast<double>(traced->events), "ns");
  sheet.set("net.messages_sent", static_cast<double>(traced->messages),
            "count");
  sheet.set("net.bytes_sent", static_cast<double>(traced->bytes), "B");

  ReplayShape rs;
  rs.n = s.n;
  rs.f = f;
  rs.delta = true;
  rs.silent = plan.victims();
  rs.seed = opt.seed;
  const ReplayCosts rc = replay(traced->tally->captured, rs, tracer);
  sheet.check(rc.roundtrip_ok,
              "codec round trip exact on " + std::to_string(rc.messages) +
                  " captured messages");
  const std::string basis = std::to_string(rc.messages) + " captured msgs";
  sheet.set("core.query_for_ns", rc.query_for_ns, "ns", basis);
  sheet.set("core.on_query_ns", rc.on_query_ns, "ns", basis);
  sheet.set("core.on_response_ns", rc.on_response_ns, "ns", basis);
  sheet.set("core.finish_round_ns", rc.finish_round_ns, "ns", basis);
  sheet.set("codec.encode_ns", rc.encode_ns, "ns", basis);
  sheet.set("codec.decode_ns", rc.decode_ns, "ns", basis);
  const WireTally& w = *traced->tally;
  sheet.ratio("core.queries_skipped_share", static_cast<double>(traced->skipped),
              static_cast<double>(traced->skipped + w.queries), "share");
  sheet.ratio("codec.bytes_per_query", static_cast<double>(w.query_bytes),
              static_cast<double>(w.queries), "B");
  sheet.ratio("codec.full_query_share", static_cast<double>(w.full_queries),
              static_cast<double>(w.queries), "share");
  sheet.ratio("codec.need_full_per_node_round", static_cast<double>(w.need_full),
              static_cast<double>(traced->rounds), "count");

  const auto* rtt = traced->registry.find_histogram("sim.round_rtt_ns");
  const std::string rtt_n = "n=" + std::to_string(rtt ? rtt->count : 0);
  sheet.set("sim.round_rtt_p50_ms", rtt ? rtt->percentile(0.50) / 1e6 : 0.0,
            "ms", rtt_n);
  sheet.set("sim.round_rtt_p99_ms", rtt ? rtt->percentile(0.99) / 1e6 : 0.0,
            "ms", rtt_n);
  sheet.set("runtime.cluster_setup_s", median(setups), "s",
            "median of " + std::to_string(setups.size()) + " set-ups");
  sheet.set("sim_events_per_s", median(eps_rate_traced), "1/s",
            "median of " + std::to_string(eps_rate_traced.size()) +
                " traced episodes");
  sheet.set("obs.trace_overhead_cpu_us_per_node_round",
            median(cpu_us_traced) - median(cpu_us), "us",
            "traced minus untraced episode medians");
  sheet.set("obs.trace_overhead_sim_events_per_s",
            median(eps_rate_traced) - median(eps_rate), "1/s",
            "traced minus untraced episode medians");

  // Layers this workload does not exercise read zero.
  for (const char* name : {"rt.round_rtt_p50_ms", "rt.round_rtt_p99_ms",
                           "live.kill_lag_p50_ms", "live.kill_lag_max_ms",
                           "obs.pacing_ms", "obs.resend_wait_ms", "obs.wire_ms"}) {
    sheet.set(name, 0.0, "ms", "not exercised");
  }
  sheet.set("rt.resend_waves_per_node_round", 0.0, "count", "not exercised");
  sheet.set("udp.datagrams_received_per_node_round", 0.0, "count",
            "not exercised");
  sheet.set("udp.recv_losses", 0.0, "count", "not exercised");
  sheet.set("fault.drop_share", 0.0, "share", "not exercised");
  sheet.set("live.setup_s", 0.0, "s", "not exercised");
  sheet.set("obs.assemble_s", 0.0, "s", "not exercised");
  sheet.set("obs.records_assembled", 0.0, "count", "not exercised");
  sheet.set("obs.causal_violations", 0.0, "count", "not exercised");
}

}  // namespace perfbench
