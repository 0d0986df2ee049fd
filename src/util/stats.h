#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

// Statistics helpers used by both the simulator (link utilization
// estimates) and the evaluation harness (percentiles, CDFs, boxplots).
namespace livenet {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
/// O(1) space; suitable for high-rate counters inside the data plane.
class OnlineStats {
 public:
  void add(double x);
  void merge(const OnlineStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return n_ > 0 ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Sample reservoir with exact quantiles. Stores every sample; use for
/// per-session metrics (bounded by session count), not per-packet data.
class Samples {
 public:
  void add(double x) { values_.push_back(x); dirty_ = true; }
  void reserve(std::size_t n) { values_.reserve(n); }

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double mean() const;
  double min() const;
  double max() const;

  /// Exact quantile with linear interpolation; q in [0, 1].
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

  /// Fraction of samples <= x (empirical CDF evaluated at x).
  double cdf_at(double x) const;

 private:
  void sort_if_needed() const;

  mutable std::vector<double> values_;
  mutable bool dirty_ = false;
};

/// Boxplot summary matching the paper's Figure 11 convention:
/// 20th, 25th, 50th, 75th and 80th percentiles.
struct BoxStats {
  double p20 = 0, p25 = 0, p50 = 0, p75 = 0, p80 = 0;
  std::size_t count = 0;
};

BoxStats boxplot(const Samples& s);

/// Fixed-width histogram over [lo, hi) with overflow/underflow buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  /// Adds `x` with an integer weight — exactly `w` repeated add(x)
  /// calls, in one bucket increment (cohort fan-out uses this).
  void add_weighted(double x, std::size_t w);
  /// Bucket-wise accumulate of an identically-configured histogram
  /// (same [lo, hi) and bucket count; mismatches are ignored loudly).
  void merge(const Histogram& other);
  std::size_t count() const { return total_; }
  std::size_t bucket_count() const { return counts_.size(); }
  std::size_t bucket(std::size_t i) const { return counts_[i]; }
  double bucket_lo(std::size_t i) const;
  double bucket_hi(std::size_t i) const;
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }

  /// Approximate quantile from bucket boundaries; q in [0, 1].
  double quantile(double q) const;

 private:
  double lo_, hi_, width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0, overflow_ = 0, total_ = 0;
};

/// Ratio counter (e.g. 0-stall ratio, fast-startup ratio).
class RatioCounter {
 public:
  void add(bool hit) { ++total_; if (hit) ++hits_; }
  std::size_t total() const { return total_; }
  std::size_t hits() const { return hits_; }
  double ratio() const { return total_ ? static_cast<double>(hits_) / static_cast<double>(total_) : 0.0; }
  double percent() const { return 100.0 * ratio(); }

 private:
  std::size_t hits_ = 0;
  std::size_t total_ = 0;
};

/// Two-sample Welch t-test, used to reproduce the paper's significance
/// claim ("p-values < 0.001"). Returns the t statistic; the caller
/// compares against a critical value (for the huge sample sizes used
/// here, |t| > 3.3 corresponds to p < 0.001).
double welch_t_statistic(const OnlineStats& a, const OnlineStats& b);

}  // namespace livenet
