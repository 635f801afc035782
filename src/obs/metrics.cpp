#include "obs/metrics.hpp"

#include <cassert>
#include <cstdio>
#include <utility>

namespace sma::obs {

void MetricsRegistry::add_probe(std::string column, Probe probe) {
  assert(probe && "probe must be callable");
  columns_.push_back(std::move(column));
  probes_.push_back(std::move(probe));
}

void MetricsRegistry::clear_probes() {
  columns_.clear();
  probes_.clear();
}

void MetricsRegistry::set_sample_interval(double seconds) {
  assert(seconds >= 0.0);
  interval_s_ = seconds;
  next_sample_s_ = 0.0;
  last_sample_s_ = 0.0;
  sampled_once_ = false;
}

void MetricsRegistry::advance_to(double now) {
  if (interval_s_ <= 0.0 || probes_.empty()) return;
  while (next_sample_s_ <= now) {
    sample_now(next_sample_s_);
    next_sample_s_ += interval_s_;
  }
}

void MetricsRegistry::sample_now(double now) {
  if (probes_.empty()) return;
  if (timeline_.empty()) timeline_columns_ = columns_;
  const double dt = sampled_once_ ? now - last_sample_s_ : now;
  TimelineRow row;
  row.t_s = now;
  row.values.reserve(probes_.size());
  for (auto& probe : probes_) row.values.push_back(probe(now, dt));
  timeline_.push_back(std::move(row));
  last_sample_s_ = now;
  sampled_once_ = true;
}

bool MetricsRegistry::write_timeline_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "t_s");
  for (const auto& c : columns()) std::fprintf(f, ",%s", c.c_str());
  std::fprintf(f, "\n");
  for (const auto& row : timeline_) {
    std::fprintf(f, "%.6f", row.t_s);
    for (const double v : row.values) std::fprintf(f, ",%.6f", v);
    std::fprintf(f, "\n");
  }
  return std::fclose(f) == 0;
}

}  // namespace sma::obs
