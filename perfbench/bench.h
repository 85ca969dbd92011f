// Shared pieces of the perfbench driver: the metric sheet every workload
// fills, the in-memory span tracer of the traced run, and small process
// probes (CPU time, peak RSS).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "runtime/mmr_host.h"

namespace perfbench {

using mmrfd::Duration;
using mmrfd::ProcessId;

// --- metric sheet -------------------------------------------------------------

struct Metric {
  std::string name;
  double value{0};
  std::string unit;
  /// Numerator/denominator of a ratio or the sample count of a percentile,
  /// printed next to the value.
  std::string basis;
};

/// Everything one benchmark run measured, plus its correctness verdicts.
class Sheet {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           const std::string& basis = "");
  /// Ratio metric: value = num / den (0 when den is 0), basis "num/den".
  void ratio(const std::string& name, double num, double den,
             const std::string& unit);
  /// Percentile metric over `samples` (p in [0, 100]), basis "n=<count>".
  void percentile(const std::string& name, const mmrfd::SampleSet& samples,
                  double p, double scale, const std::string& unit);
  /// Records a correctness check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what);

  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  [[nodiscard]] const std::vector<std::string>& passes() const {
    return passes_;
  }

  /// (crash, correct observer) pairs: the benchmark's operations.
  std::uint64_t attempted{0};
  /// Pairs with no permanent suspicion at episode end.
  std::uint64_t failed{0};

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> passes_;
};

// --- span tracer ----------------------------------------------------------------

/// Spans recorded by the benchmark's own code around calls into each
/// layer's public API. Kept in memory and written when the run ends. Single
/// threaded: only the driver thread opens spans. A disabled tracer records
/// nothing, so untraced runs pay one branch per span.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns{0};  ///< steady clock, relative to tracer creation
    std::int64_t end_ns{0};
    std::int64_t parent{-1};  ///< index into spans(), -1 = root
    std::uint64_t calls{1};   ///< API calls the span covers (batched spans)
  };

  class Scope {
   public:
    Scope(Tracer* tracer, std::int64_t index)
        : tracer_(tracer), index_(index) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int64_t index_;
  };

  Tracer(bool enabled, std::uint64_t run_id);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] Scope span(const char* name, std::uint64_t calls = 1);

  /// Per-name totals: calls, wall time, and self time (span minus the part
  /// its child spans cover).
  struct Total {
    std::string name;
    std::uint64_t spans{0};
    std::uint64_t calls{0};
    double total_ns{0};
    double self_ns{0};
  };
  [[nodiscard]] std::vector<Total> totals() const;
  /// Total span time per API call of `name` (0 if never recorded).
  [[nodiscard]] double ns_per_call(const std::string& name) const;

  /// One JSON object per span, one per line: name, start, end, parent, run.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  std::uint64_t run_id_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

// --- process probes -------------------------------------------------------------

[[nodiscard]] double seconds_since(std::chrono::steady_clock::time_point t0);
/// CPU time (user + sys) of this process, seconds.
[[nodiscard]] double process_cpu_s();
/// CPU time (user + sys) of reaped children, seconds.
[[nodiscard]] double children_cpu_s();
/// Peak resident set of process `pid` (0 = self) in MiB; 0 if unreadable.
[[nodiscard]] double peak_rss_mb(int pid = 0);
/// Pids of this process's live children whose command name is `comm`.
[[nodiscard]] std::vector<int> child_pids(const std::string& comm);

[[nodiscard]] double median(std::vector<double> v);

// --- replay of captured protocol messages ---------------------------------------

/// Per-call costs of the codec and DetectorCore, measured by pushing a
/// workload's captured messages through benchmark-owned encoders and cores.
struct ReplayCosts {
  double encode_ns{0};
  double decode_ns{0};
  double query_for_ns{0};
  double on_query_ns{0};
  double on_response_ns{0};
  double finish_round_ns{0};
  std::uint64_t messages{0};
  bool roundtrip_ok{true};  ///< decode(encode(m)) == m for every message
};

struct ReplayShape {
  std::uint32_t n{0};
  std::uint32_t f{0};
  bool delta{true};
  /// Peers that never respond in the replayed rounds (the crash victims).
  std::vector<ProcessId> silent;
  std::uint64_t seed{0};
};

[[nodiscard]] ReplayCosts replay(const std::vector<mmrfd::runtime::MmrMessage>& msgs,
                                 const ReplayShape& shape, Tracer& tracer);

// --- workloads ------------------------------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0};
  bool trace{false};
  bool toy{false};          ///< self-test size
  std::string work_dir;     ///< scratch space inside the checkout
};

void run_sim_churn(const RunOptions& opt, Sheet& sheet, Tracer& tracer);
void run_live(const RunOptions& opt, double drop_rate, Sheet& sheet,
              Tracer& tracer);

}  // namespace perfbench
