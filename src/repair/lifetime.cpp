// Monte-Carlo array-lifetime simulation (repair::simulate_mttdl).
//
// Lives in sma_repair rather than sma_recon because every trial drives
// the real repair machinery — Lifecycle for loss detection and
// SparePool for depletion — and sma_recon must not link sma_repair (the
// executor consumes repair's header-inline pieces only).
//
// Event loop: exponential failures (the per-disk rate redrawn after
// every event, which is exact for memoryless interarrivals), weighted
// choice of which disk dies, exponential repairs, spare units consumed
// per repair and optionally replaced after a fixed lead time. A live
// disk sharing an enclosure with a failed one runs at a multiplied
// hazard — the correlated-failure mode the closed forms cannot see.
#include "repair/lifetime.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "repair/lifecycle.hpp"
#include "repair/spare_pool.hpp"
#include "util/rng.hpp"

namespace sma::repair {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

Result<MonteCarloReport> simulate_mttdl(const layout::Architecture& arch,
                                        const MonteCarloParams& params) {
  if (!(params.disk_mttf_hours > 0.0))
    return invalid_argument("disk_mttf_hours must be positive");
  if (!(params.mttr_hours > 0.0))
    return invalid_argument("mttr_hours must be positive");
  if (params.trials <= 0) return invalid_argument("trials must be positive");
  if (!(std::isfinite(params.enclosure_hazard_factor) &&
        params.enclosure_hazard_factor >= 1.0))
    return invalid_argument(
        "enclosure_hazard_factor must be finite and >= 1.0 (a failed "
        "neighbor never makes a disk more reliable)");
  const int total = arch.total_disks();
  if (!params.enclosure_of.empty() &&
      static_cast<int>(params.enclosure_of.size()) != total)
    return invalid_argument("enclosure_of must list every physical disk (" +
                            std::to_string(params.enclosure_of.size()) +
                            " entries for " + std::to_string(total) +
                            " disks)");

  Rng rng(params.seed);
  MonteCarloReport out;
  out.trials = params.trials;

  double sum = 0.0;
  double sum_sq = 0.0;
  std::uint64_t total_failures = 0;

  for (int trial = 0; trial < params.trials; ++trial) {
    Rng trial_rng = rng.fork();
    Lifecycle lc(arch);
    SparePool pool(params.spare, total);
    std::map<int, double> repair_done;   // disk -> completion time
    std::vector<int> waiting;            // repairs stalled on the pool
    std::vector<double> replenish_at;    // pending spare arrivals
    double t = 0.0;

    auto enclosure_degraded = [&](int disk) {
      if (params.enclosure_of.empty() ||
          params.enclosure_hazard_factor <= 1.0)
        return false;
      for (const int f : lc.failed())
        if (params.enclosure_of[static_cast<std::size_t>(f)] ==
                params.enclosure_of[static_cast<std::size_t>(disk)] &&
            params.enclosure_of[static_cast<std::size_t>(disk)] >= 0)
          return true;
      return false;
    };

    auto start_repair = [&](int disk, double now) -> Status {
      if (!params.spare.inert()) {
        auto unit = pool.allocate();
        if (!unit.is_ok()) {
          ++out.spare_waits;
          waiting.push_back(disk);
          return lc.on_spare_exhausted(now);
        }
        if (params.spare_replenish_hours > 0.0)
          replenish_at.push_back(now + params.spare_replenish_hours);
      }
      SMA_RETURN_IF_ERROR(lc.on_repair_start(now, disk));
      repair_done[disk] = now + trial_rng.next_exponential(params.mttr_hours);
      return Status::ok();
    };

    std::uint64_t failures = 0;
    while (!lc.terminal()) {
      // Per-disk failure rates of the live disks, correlation applied.
      std::vector<int> live;
      std::vector<double> rate;
      double total_rate = 0.0;
      for (int d = 0; d < total; ++d) {
        if (contains(lc.failed(), d)) continue;
        double r = 1.0 / params.disk_mttf_hours;
        if (enclosure_degraded(d)) r *= params.enclosure_hazard_factor;
        live.push_back(d);
        rate.push_back(r);
        total_rate += r;
      }

      const double t_fail =
          total_rate > 0.0 ? t + trial_rng.next_exponential(1.0 / total_rate)
                           : kInf;
      double t_repair = kInf;
      int repair_disk = -1;
      for (const auto& [d, done] : repair_done) {
        if (done < t_repair) {
          t_repair = done;
          repair_disk = d;
        }
      }
      const auto replenish_it =
          std::min_element(replenish_at.begin(), replenish_at.end());
      const double t_replenish =
          replenish_it != replenish_at.end() ? *replenish_it : kInf;

      if (t_fail <= t_repair && t_fail <= t_replenish) {
        t = t_fail;
        double u = trial_rng.next_double() * total_rate;
        int victim = live.back();
        for (std::size_t i = 0; i < live.size(); ++i) {
          u -= rate[i];
          if (u <= 0.0) {
            victim = live[i];
            break;
          }
        }
        ++failures;
        SMA_RETURN_IF_ERROR(lc.on_failure(t, victim));
        if (lc.terminal()) break;
        SMA_RETURN_IF_ERROR(start_repair(victim, t));
      } else if (t_repair <= t_replenish) {
        t = t_repair;
        repair_done.erase(repair_disk);
        SMA_RETURN_IF_ERROR(lc.on_repair_complete(t, repair_disk));
      } else {
        t = t_replenish;
        replenish_at.erase(replenish_it);
        pool.replenish(1);
        if (!waiting.empty()) {
          const int disk = waiting.front();
          waiting.erase(waiting.begin());
          SMA_RETURN_IF_ERROR(start_repair(disk, t));
        } else {
          SMA_RETURN_IF_ERROR(lc.on_spare_available(t));
        }
      }
      if (t == kInf)
        return internal_error(
            "lifetime trial stalled: no failure, repair or replenish event "
            "pending before data loss");
    }

    sum += t;
    sum_sq += t * t;
    total_failures += failures;
    out.transitions += static_cast<std::uint64_t>(lc.history().size());
  }

  const double n = static_cast<double>(params.trials);
  out.mttdl_hours = sum / n;
  if (params.trials > 1) {
    const double var =
        std::max(0.0, (sum_sq - sum * sum / n) / (n - 1.0));
    out.stderr_hours = std::sqrt(var / n);
  }
  out.mean_failures_to_loss = static_cast<double>(total_failures) / n;
  return out;
}

}  // namespace sma::repair
