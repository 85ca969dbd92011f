// E7 — Ablations of the protocol's knobs (DESIGN.md design-choice index).
//
//   (a) winning quorum n - f + extra: waiting for more than n - f responses
//       trades detection latency for fewer false suspicions;
//   (b) pacing Delta: faster cadence = faster detection, more messages.
//
// Expected shape: (a) latency grows with extra quorum, false suspicions
// fall; (b) detection ~ Delta + delay, messages ~ 1/Delta.
#include <iostream>

#include "common/argparse.h"
#include "exp_common.h"
#include "metrics/table.h"

using namespace mmrfd;
using metrics::Table;

namespace {

constexpr std::uint32_t kCrashes = 3;

/// The sweep's flags: every cell runs this workload, one knob changed.
struct Flags {
  std::uint32_t n{20};
  std::uint32_t f{5};
  std::uint64_t seeds{3};
  std::uint32_t horizon_s{60};
  bool csv{false};
};

bench::Workload base_workload(const Flags& flags, std::uint64_t seed) {
  bench::Workload w;
  w.n = flags.n;
  w.f = flags.f;
  w.seed = seed;
  w.crashes = kCrashes;
  w.horizon = from_seconds(flags.horizon_s);
  w.crash_window_end = w.horizon - from_seconds(20);
  w.preset = net::DelayPreset::kPareto;  // stressful tails
  w.mean_delay = from_millis(20);
  w.period = from_millis(500);
  return w;
}

struct Agg {
  SampleSet latency;
  std::size_t false_susp{0};
  std::uint64_t msgs{0};
  bool complete{true};
};

template <typename Mutator>
Agg sweep(const Flags& flags, Mutator mutate) {
  Agg a;
  for (std::uint64_t seed = 1; seed <= flags.seeds; ++seed) {
    auto w = base_workload(flags, seed);
    mutate(w);
    const auto m = bench::run_mmr(w);
    bench::append_samples(a.latency, m.detection_latencies);
    a.false_susp += m.false_suspicions;
    a.msgs += m.messages_sent;
    a.complete = a.complete && m.strong_completeness;
  }
  return a;
}

void print(const Table& table, bool csv) {
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  ArgParser args("E7: protocol ablations (quorum slack, pacing)");
  args.flag("n", flags.n, "system size")
      .flag("f", flags.f, "fault tolerance")
      .flag("seeds", flags.seeds, "seeds per cell")
      .flag("horizon", flags.horizon_s, "simulated seconds")
      .flag("csv", flags.csv, "emit CSV");
  if (const auto status = args.parse(argc, argv)) return *status;
  if (!bench::check_system("exp_ablation", "--n", flags.n, flags.f)) return 2;
  if (flags.n < kCrashes) {
    std::cerr << "exp_ablation: --n must be >= " << kCrashes
              << " (every run crashes " << kCrashes << ")\n";
    return 2;
  }

  std::cout << "# E7a: winning-quorum slack (wait for n - f + extra)\n\n";
  Table qa({"extra_quorum", "mean_detect_s", "max_detect_s", "false_susp",
            "complete"});
  for (const std::uint32_t extra : {0u, 1u, 2u, 4u}) {
    const auto a =
        sweep(flags, [&](bench::Workload& w) { w.extra_quorum = extra; });
    qa.add_row({Table::num(std::uint64_t{extra}), Table::num(a.latency.mean()),
                Table::num(a.latency.max()),
                Table::num(std::uint64_t{a.false_susp}),
                a.complete ? "yes" : "NO"});
  }
  print(qa, flags.csv);

  std::cout << "\n# E7b: pacing Delta\n\n";
  Table pa({"pacing_ms", "mean_detect_s", "false_susp", "msgs_total"});
  for (const int ms : {100, 250, 500, 1000, 2000}) {
    const auto a = sweep(flags, [&](bench::Workload& w) {
      w.period = from_millis(ms);
    });
    pa.add_row({Table::num(std::int64_t{ms}), Table::num(a.latency.mean()),
                Table::num(std::uint64_t{a.false_susp}), Table::num(a.msgs)});
  }
  print(pa, flags.csv);
  return 0;
}
