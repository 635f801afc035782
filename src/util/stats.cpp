#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <utility>

namespace sma {

void RunningStat::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStat::merge(const RunningStat& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(count_);
  const auto nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

SampleSet::SampleSet(std::vector<double> samples)
    : samples_(std::move(samples)) {
  assert(std::none_of(samples_.begin(), samples_.end(),
                      [](double x) { return std::isnan(x); }));
  std::sort(samples_.begin(), samples_.end());
}

void SampleSet::add(double x) {
  samples_.insert(std::upper_bound(samples_.begin(), samples_.end(), x), x);
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  const double s = std::accumulate(samples_.begin(), samples_.end(), 0.0);
  return s / static_cast<double>(samples_.size());
}

double SampleSet::min() const {
  assert(!samples_.empty());
  return samples_.front();
}

double SampleSet::max() const {
  assert(!samples_.empty());
  return samples_.back();
}

double SampleSet::percentile(double p) const {
  assert(!samples_.empty());
  assert(p >= 0.0 && p <= 100.0);
  if (samples_.size() == 1) return samples_[0];
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

}  // namespace sma
