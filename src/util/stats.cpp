#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/logging.h"

namespace livenet {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void Samples::sort_if_needed() const {
  if (dirty_) {
    std::sort(values_.begin(), values_.end());
    dirty_ = false;
  }
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double s = 0.0;
  for (double v : values_) s += v;
  return s / static_cast<double>(values_.size());
}

double Samples::min() const {
  sort_if_needed();
  return values_.empty() ? 0.0 : values_.front();
}

double Samples::max() const {
  sort_if_needed();
  return values_.empty() ? 0.0 : values_.back();
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  sort_if_needed();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

double Samples::cdf_at(double x) const {
  if (values_.empty()) return 0.0;
  sort_if_needed();
  const auto it = std::upper_bound(values_.begin(), values_.end(), x);
  return static_cast<double>(it - values_.begin()) /
         static_cast<double>(values_.size());
}

BoxStats boxplot(const Samples& s) {
  BoxStats b;
  b.p20 = s.quantile(0.20);
  b.p25 = s.quantile(0.25);
  b.p50 = s.quantile(0.50);
  b.p75 = s.quantile(0.75);
  b.p80 = s.quantile(0.80);
  b.count = s.count();
  return b;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi) {
  // Validate before the width division and the bucket allocation: with
  // buckets == 0 the member-initializer order would divide by zero
  // (and allocate) before the guard ever ran.
  if (buckets == 0 || !(hi > lo)) {
    throw std::invalid_argument("Histogram: requires hi > lo, buckets > 0");
  }
  width_ = (hi - lo) / static_cast<double>(buckets);
  counts_.assign(buckets, 0);
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
  } else if (x >= hi_) {
    ++overflow_;
  } else {
    auto idx = static_cast<std::size_t>((x - lo_) / width_);
    idx = std::min(idx, counts_.size() - 1);  // guard FP edge at hi_
    ++counts_[idx];
  }
}

void Histogram::add_weighted(double x, std::size_t w) {
  total_ += w;
  if (x < lo_) {
    underflow_ += w;
  } else if (x >= hi_) {
    overflow_ += w;
  } else {
    auto idx = static_cast<std::size_t>((x - lo_) / width_);
    idx = std::min(idx, counts_.size() - 1);  // guard FP edge at hi_
    counts_[idx] += w;
  }
}

void Histogram::merge(const Histogram& other) {
  if (other.lo_ != lo_ || other.hi_ != hi_ ||
      other.counts_.size() != counts_.size()) {
    // Differently-shaped histograms have no faithful bucket mapping;
    // refusing beats silently mis-binning.
    LIVENET_LOG(kError) << "Histogram::merge: shape mismatch, ignored";
    return;
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
}

double Histogram::bucket_lo(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bucket_hi(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i + 1);
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return lo_;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double cum = static_cast<double>(underflow_);
  if (target <= cum) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (target <= next && counts_[i] > 0) {
      const double frac = (target - cum) / static_cast<double>(counts_[i]);
      return bucket_lo(i) + frac * width_;
    }
    cum = next;
  }
  return hi_;
}

double welch_t_statistic(const OnlineStats& a, const OnlineStats& b) {
  if (a.count() < 2 || b.count() < 2) return 0.0;
  const double va = a.variance() / static_cast<double>(a.count());
  const double vb = b.variance() / static_cast<double>(b.count());
  const double denom = std::sqrt(va + vb);
  if (denom == 0.0) return 0.0;
  return (a.mean() - b.mean()) / denom;
}

}  // namespace livenet
