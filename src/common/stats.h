// Small statistics helpers used by the metrics module and the benches.
#pragma once

#include <cstddef>
#include <vector>

namespace mmrfd {

/// Streaming mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  ///< sample variance (n-1)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel combine).
  void merge(const RunningStats& other);

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
  double sum_{0.0};
};

/// Stores all samples; supports exact percentiles. Use for per-run
/// distributions (detection times, mistake durations) where sample counts
/// are modest.
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Exact percentile by linear interpolation, p in [0, 100].
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] double stddev() const;

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_{false};
  void ensure_sorted() const;
};

}  // namespace mmrfd
