#include "exp_common.h"

#include <iostream>
#include <stdexcept>
#include <variant>

namespace mmrfd::bench {

namespace {

runtime::CrashPlan plan_for(const Workload& w) {
  if (w.crashes == 0) return runtime::CrashPlan::none();
  // The engineered-fast processes are the MP witnesses; crashing them is
  // legal but makes accuracy comparisons meaningless, so protect them.
  return runtime::CrashPlan::uniform(w.crashes, w.n, w.crash_window_start,
                                     w.crash_window_end, w.seed, w.fast_set);
}

// The baselines' links: the preset plus the spike, without the fast-set
// bias, which engineers MP for the paper's detector only.
std::unique_ptr<net::DelayModel> delays_for(const Workload& w) {
  auto model = net::make_preset(w.preset, w.mean_delay);
  if (w.spike) {
    model = std::make_unique<net::SpikeDelay>(std::move(model),
                                              w.spike->start, w.spike->end,
                                              w.spike->factor,
                                              w.spike->affected);
  }
  return model;
}

Duration stagger(std::uint64_t seed, ProcessId id, Duration period) {
  Xoshiro256 rng(derive_seed(seed, "bench.stagger", id.value));
  return Duration(static_cast<Duration::rep>(
      rng.next_double() * static_cast<double>(period.count())));
}

}  // namespace

RunMetrics summarize(const metrics::EventLog& log, std::uint32_t n,
                     Duration horizon) {
  RunMetrics out;
  metrics::Analysis analysis(log, n, horizon);
  // One crash_summaries() pass feeds latencies, completeness and the worst
  // per-crash instant (each call re-derives detections from the log).
  const auto summaries = analysis.crash_summaries();
  out.strong_completeness = true;
  double worst = 0.0;
  for (const auto& s : summaries) {
    for (double lat : s.latencies.samples()) out.detection_latencies.add(lat);
    if (s.completeness_latency) {
      worst = std::max(worst, to_seconds(*s.completeness_latency));
    } else {
      out.strong_completeness = false;
    }
  }
  if (out.strong_completeness) out.completeness_latency = worst;
  const auto fs = analysis.false_suspicions();
  out.false_suspicions = fs.size();
  for (const auto& f : fs) {
    if (f.cleared_at) {
      out.mistake_durations.add(to_seconds(*f.cleared_at - f.suspected_at));
    }
  }
  out.false_series = analysis.false_suspicion_series();
  if (auto t = analysis.accuracy_stabilization()) {
    out.accuracy_stable_at = to_seconds(*t);
  }
  if (auto t = analysis.full_accuracy_stabilization()) {
    out.clean_at = to_seconds(*t);
  }
  return out;
}

RunMetrics summarize_rollup_metrics(const std::vector<metrics::PairRollup>& pairs,
                                    const std::vector<metrics::CrashRecord>& crashes,
                                    std::uint32_t n) {
  RunMetrics out;
  const metrics::RollupSummary s = metrics::summarize_rollup(pairs, crashes, n);
  out.detection_latencies = s.detection_latencies;
  out.completeness_latency = s.completeness_latency;
  out.strong_completeness = s.strong_completeness;
  out.false_suspicions = s.false_suspicions;
  out.clean_at = s.clean_at;
  return out;
}

RunMetrics run_mmr(const Workload& w) {
  runtime::MmrClusterConfig cfg;
  cfg.n = w.n;
  cfg.f = w.f;
  cfg.seed = w.seed;
  cfg.pacing = w.period;
  cfg.mean_delay = w.mean_delay;
  cfg.delay_preset = w.preset;
  cfg.fast_set = w.fast_set;
  cfg.fast_factor = w.fast_factor;
  cfg.spike = w.spike;
  cfg.extra_quorum = w.extra_quorum;
  runtime::MmrCluster cluster(cfg);
  cluster.network().set_size_fn([](const runtime::MmrMessage& m) {
    return std::visit([](const auto& msg) { return transport::wire_size(msg); },
                      m);
  });
  cluster.start(plan_for(w));
  cluster.run_for(w.horizon);

  RunMetrics out = summarize(cluster.log(), w.n, w.horizon);
  out.messages_sent = cluster.network().stats().messages_sent;
  out.bytes_sent = cluster.network().stats().bytes_sent;
  std::vector<ProcessId> correct;
  for (std::uint32_t i = 0; i < w.n; ++i) {
    if (!cluster.host(ProcessId{i}).crashed()) correct.push_back(ProcessId{i});
  }
  core::MpChecker checker(cluster.recorder(), w.f, correct);
  out.mp = checker.check();
  return out;
}

namespace {

// Baseline messages are sized by the codec's rules (transport/codec.h): no
// envelope (the transport names the sender), each integer a LEB128 varint,
// a vector prefixed by its varint length.
std::size_t wire_size(const baselines::HeartbeatMessage& m) {
  return transport::uvarint_size(m.seq);
}

std::size_t wire_size(const baselines::GossipMessage& m) {
  std::size_t size = transport::uvarint_size(m.counters.size());
  for (const std::uint64_t c : m.counters) size += transport::uvarint_size(c);
  return size;
}

template <typename Msg>
RunMetrics run_baseline(const Workload& w,
                        const baselines::SuspicionRule& rule) {
  runtime::BaselineCluster<baselines::BaselineDetector<Msg>> cluster(
      w.n, net::Topology::full(w.n), delays_for(w),
      derive_seed(w.seed, "bench.baseline"), [&](ProcessId self) {
        baselines::HeartbeatConfig c;
        c.self = self;
        c.n = w.n;
        c.period = w.period;
        c.rule = rule;
        c.initial_delay = stagger(w.seed, self, w.period);
        return c;
      });
  cluster.network().set_size_fn([](const Msg& m) { return wire_size(m); });
  cluster.start(plan_for(w));
  cluster.run_for(w.horizon);
  RunMetrics out = summarize(cluster.log(), w.n, w.horizon);
  out.messages_sent = cluster.network().stats().messages_sent;
  out.bytes_sent = cluster.network().stats().bytes_sent;
  return out;
}

}  // namespace

RunMetrics run_detector(const std::string& name, const Workload& w) {
  using baselines::GossipMessage;
  using baselines::HeartbeatMessage;
  if (name == "mmr") return run_mmr(w);
  if (name == "heartbeat") {
    return run_baseline<HeartbeatMessage>(w, baselines::FixedTimeout{w.timeout});
  }
  if (name == "phi") {
    return run_baseline<HeartbeatMessage>(
        w, baselines::PhiAccrual{.threshold = w.phi_threshold,
                                 .poll = w.period / 10});
  }
  if (name == "adaptive") {
    return run_baseline<HeartbeatMessage>(
        w, baselines::AdaptiveTimeout{.safety_margin = w.timeout});
  }
  if (name == "gossip") {
    return run_baseline<GossipMessage>(w, baselines::FixedTimeout{w.timeout});
  }
  throw std::invalid_argument("unknown detector: " + name);
}

void append_samples(SampleSet& into, const SampleSet& from) {
  for (double x : from.samples()) into.add(x);
}

bool check_system(const char* driver, const char* n_flag, std::uint32_t n,
                  std::uint32_t f) {
  if (n < 2) {
    std::cerr << driver << ": " << n_flag << " must be >= 2 (got " << n
              << ")\n";
    return false;
  }
  if (f >= n) {
    std::cerr << driver << ": --f must be < --n (got f=" << f << ", n=" << n
              << ")\n";
    return false;
  }
  return true;
}

}  // namespace mmrfd::bench
