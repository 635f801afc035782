// Streaming statistics and sample summaries for experiment reporting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sma {

/// Welford online mean/variance accumulator. O(1) memory; numerically
/// stable for long runs.
class RunningStat {
 public:
  void add(double x);
  void merge(const RunningStat& other);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;  // sample variance (n-1); 0 if count < 2
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Order statistics over a retained sample set. Samples are always
/// kept sorted, so every accessor is genuinely const — concurrent
/// reads of a no-longer-mutated set are safe. (The previous lazy
/// sort-on-read mutated state under `const`, a data race when two
/// threads called percentile() on a shared set.)
class SampleSet {
 public:
  SampleSet() = default;
  /// Takes ownership of `samples` and sorts them once: O(n log n).
  /// Requires no NaN. Equals, bit for bit, the set that adding the
  /// same values one by one in any order builds — except that -0.0
  /// and +0.0 (equal under <) may swap places.
  explicit SampleSet(std::vector<double> samples);

  /// Sorted insert: O(count()) per call, so filling a set of n samples
  /// this way costs O(n²). No code under src/ fills a set with it any
  /// more; every set there is built from a vector. It stays for
  /// benchmark/'s recompositions and the stats tests.
  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double mean() const;
  double min() const;
  double max() const;
  /// Linear-interpolated percentile, p in [0, 100]. Requires non-empty.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  /// The retained samples in ascending order (not insertion order).
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;  // ascending
};

/// Fixed-bucket linear histogram for latency distributions.
class Histogram {
 public:
  /// Buckets of width `bucket_width` starting at `lo`; values beyond the
  /// last bucket land in an overflow bin.
  Histogram(double lo, double bucket_width, std::size_t bucket_count);

  void add(double x);
  std::size_t total() const { return total_; }
  std::size_t bucket(std::size_t i) const { return counts_.at(i); }
  std::size_t overflow() const { return overflow_; }
  std::size_t underflow() const { return underflow_; }
  std::size_t bucket_count() const { return counts_.size(); }
  double bucket_low(std::size_t i) const {
    return lo_ + static_cast<double>(i) * width_;
  }

  /// Multi-line ASCII rendering ("[lo, hi) count ####").
  std::string render(std::size_t max_bar = 40) const;

 private:
  double lo_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace sma
