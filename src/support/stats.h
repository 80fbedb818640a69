// revft/support/stats.h
//
// Statistics utilities for Monte-Carlo experiments: running moments,
// Bernoulli (success-count) estimates with Wilson confidence intervals,
// and a tiny least-squares line fit used by the pseudo-threshold finder
// (log p_L vs log g slope estimation).
#pragma once

#include <cstdint>
#include <vector>

namespace revft {

/// Welford running mean/variance accumulator.
class RunningStat {
 public:
  void add(double x) noexcept;

  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept { return mean_; }
  /// Unbiased sample variance (0 when fewer than 2 samples).
  double variance() const noexcept;
  double stddev() const noexcept;
  /// Standard error of the mean (0 when fewer than 2 samples).
  double stderror() const noexcept;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Estimate of a Bernoulli event probability from (failures, trials).
/// Every Monte-Carlo harness in revft counts *error* events — classify
/// returning true means "this trial failed" — so the counted field is
/// named `failures` and rate() is the estimated failure (logical
/// error) probability. Nothing here is specific to errors beyond the
/// naming: it is a plain event-count estimator.
struct BernoulliEstimate {
  std::uint64_t failures = 0;
  std::uint64_t trials = 0;

  /// failures / trials (0 when no trials) — the logical error rate in
  /// Monte-Carlo use. Wilson intervals below cover this same quantity.
  double rate() const noexcept;

  /// Wilson score interval at z standard deviations (z = 1.96 for 95%)
  /// on the failure probability. Well-behaved at rate 0 and 1, unlike
  /// the normal approximation.
  struct Interval {
    double lo;
    double hi;
  };
  Interval wilson(double z = 1.96) const noexcept;
  /// Explicit alias of wilson() for call sites where "which interval?"
  /// should be unmistakable.
  Interval wilson_interval(double z = 1.96) const noexcept {
    return wilson(z);
  }
  /// Half the Wilson interval width at z — THE convergence number a
  /// streaming consumer watches ("the estimate is rate() +/- this").
  /// 0.5 with no trials (the [0,1] prior interval).
  double half_width(double z = 1.96) const noexcept;

  /// Exact integer merge (used by the thread-sharded engine).
  BernoulliEstimate& operator+=(const BernoulliEstimate& other) noexcept {
    failures += other.failures;
    trials += other.trials;
    return *this;
  }
};

/// Ordinary least squares fit y = slope*x + intercept.
/// Requires xs.size() == ys.size() >= 2 (throws revft::Error otherwise).
struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination in [0,1].
  double r_squared = 0.0;
};
LineFit fit_line(const std::vector<double>& xs, const std::vector<double>& ys);

}  // namespace revft
