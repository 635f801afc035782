// Reference copies kept for differential tests only.
//
// reference_is_recoverable: recon::is_recoverable as it stood before
// the flat-buffer rewrite (a nested vector<bool> grid and a replica
// lookup for every element), verbatim apart from its name and a
// mirror check that asks every replica array instead of array 1 alone
// (the original served R = 1). recon_reliability_test.cpp and
// repair_test.cpp hold recon::is_recoverable, recon::count_fatal_sets
// and repair::classify to it over every registry layout, R = 2 and 3
// replica arrays and the RAID-5/6 comparators.
//
// reference_plan: the greedy loop of the multi-mirror planner that
// served R replica arrays before recon::plan_reconstruction did,
// verbatim apart from its names and copy lookups going through
// layout::Architecture. three_mirror_test.cpp holds
// plan_reconstruction to it.
//
// reference_vector_plan: recon::plan_reconstruction as it stood while
// plans held their reads in vectors (a private bitset, then the list
// built from it, and a per-disk count allocated per call), verbatim
// apart from its names. recon_plan_test.cpp holds plan_reconstruction
// to it, read for read and in order.
//
// reference_failure_timeline: fleet::run_failure_timeline as it stood
// while it ran on the sim::Simulation kernel (every domain redraw
// queued as a new event, superseded draws firing as no-ops), verbatim
// apart from its names and namespace qualifications. fleet_test.cpp
// holds run_failure_timeline to it, report and observer output alike.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fleet/digest.hpp"
#include "fleet/timeline.hpp"
#include "layout/architecture.hpp"
#include "layout/registry.hpp"
#include "recon/plan.hpp"
#include "repair/lifecycle.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace sma::testref {

inline bool reference_is_recoverable(const layout::Architecture& arch,
                                     const std::vector<int>& failed) {
  if (failed.empty()) return true;
  if (!arch.is_mirror()) {
    // The RAID-5/6 comparators are MDS: recoverability is exactly the
    // erasure count.
    return static_cast<int>(failed.size()) <= arch.fault_tolerance();
  }

  auto is_failed = [&](int disk) {
    return std::find(failed.begin(), failed.end(), disk) != failed.end();
  };
  const int n = arch.n();
  const int rows = arch.rows();
  const bool parity_ok = arch.has_parity() && !is_failed(arch.parity_disk());

  // avail[i][j]: data element (i, j) is obtainable.
  std::vector<std::vector<bool>> avail(
      static_cast<std::size_t>(n),
      std::vector<bool>(static_cast<std::size_t>(rows), false));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < rows; ++j) {
      const bool data_ok = !is_failed(arch.data_disk(i));
      bool mirror_ok = false;
      for (int r = 1; r <= arch.replicas(); ++r)
        mirror_ok = mirror_ok || !is_failed(arch.replica_of(r, i, j).disk);
      avail[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          data_ok || mirror_ok;
    }
  }
  // Parity closure: a row with exactly one missing element recovers it.
  if (parity_ok) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (int j = 0; j < rows; ++j) {
        int missing = 0;
        int which = -1;
        for (int i = 0; i < n; ++i) {
          if (!avail[static_cast<std::size_t>(i)]
                    [static_cast<std::size_t>(j)]) {
            ++missing;
            which = i;
          }
        }
        if (missing == 1) {
          avail[static_cast<std::size_t>(which)][static_cast<std::size_t>(j)] =
              true;
          changed = true;
        }
      }
    }
  }
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < rows; ++j)
      if (!avail[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)])
        return false;
  return true;
}

/// One element read: (global disk, row) within a stripe.
struct ReferenceRead {
  int disk = 0;
  int row = 0;
  bool operator==(const ReferenceRead&) const = default;
  auto operator<=>(const ReferenceRead&) const = default;
};

/// Recovery source chosen for one lost element.
struct ReferenceRecovery {
  int lost_disk = 0;  // global index of the disk that lost the element
  int lost_row = 0;
  ReferenceRead from;  // where the surviving copy is read
};

struct ReferencePlan {
  std::vector<ReferenceRecovery> recoveries;
  /// Max per-disk read count (reads are deduplicated).
  int read_accesses = 0;
  std::vector<ReferenceRead> unique_reads;
};

/// Every location (data + all replicas) holding data element (i, j),
/// as global (disk, row) pairs; data copy first.
inline std::vector<layout::Pos> reference_copies_of(
    const layout::Architecture& arch, int i, int j) {
  std::vector<layout::Pos> out;
  out.push_back({arch.data_disk(i), j});
  for (int r = 1; r <= arch.replicas(); ++r)
    out.push_back(arch.replica_of(r, i, j));
  return out;
}

/// Greedy least-loaded reconstruction plan for a set of failed global
/// disks of a mirror architecture without parity. kUnrecoverable if any
/// element loses all R+1 copies.
inline Result<ReferencePlan> reference_plan(const layout::Architecture& arch,
                                            const std::vector<int>& failed) {
  for (std::size_t a = 0; a < failed.size(); ++a) {
    if (failed[a] < 0 || failed[a] >= arch.total_disks())
      return invalid_argument("failed disk out of range");
    for (std::size_t b = a + 1; b < failed.size(); ++b)
      if (failed[a] == failed[b])
        return invalid_argument("duplicate failed disk");
  }
  if (static_cast<int>(failed.size()) > arch.fault_tolerance())
    return unrecoverable(arch.name() + " cannot survive " +
                         std::to_string(failed.size()) + " failures");

  auto is_failed = [&](int disk) {
    return std::find(failed.begin(), failed.end(), disk) != failed.end();
  };

  // Enumerate lost elements (as data coordinates) per failed disk, then
  // pick, for each, the least-loaded surviving copy. Reads of the same
  // surviving cell are shared across the copies they feed.
  ReferencePlan out;
  std::vector<int> load(static_cast<std::size_t>(arch.total_disks()), 0);
  std::set<ReferenceRead> reads;

  for (const int disk : failed) {
    const int arr = arch.array_of(disk);
    for (int row = 0; row < arch.rows(); ++row) {
      // Which data element did this cell hold?
      layout::Pos src;  // (data disk, data row)
      if (arr == 0)
        src = {arch.role_index(disk), row};
      else
        src = arch.replicated_by(arr, arch.role_index(disk), row);

      // Candidate surviving copies.
      const auto copies = reference_copies_of(arch, src.disk, src.row);
      const layout::Pos* best = nullptr;
      for (const auto& copy : copies) {
        if (copy.disk == disk || is_failed(copy.disk)) continue;
        // Prefer a copy we already read (free), else least-loaded disk.
        const bool already = reads.count({copy.disk, copy.row}) > 0;
        if (already) {
          best = &copy;
          break;
        }
        if (best == nullptr ||
            load[static_cast<std::size_t>(copy.disk)] <
                load[static_cast<std::size_t>(best->disk)])
          best = &copy;
      }
      if (best == nullptr)
        return unrecoverable("element (" + std::to_string(src.disk) + "," +
                             std::to_string(src.row) +
                             ") lost every copy");
      const ReferenceRead read{best->disk, best->row};
      if (reads.insert(read).second)
        ++load[static_cast<std::size_t>(best->disk)];
      out.recoveries.push_back({disk, row, read});
    }
  }

  out.unique_reads.assign(reads.begin(), reads.end());
  out.read_accesses = *std::max_element(load.begin(), load.end());
  return out;
}

/// recon::StripePlan as it stood while the planner returned read lists.
struct ReferenceVectorPlan {
  std::vector<recon::ElementRead> availability_reads;
  std::vector<recon::CellSource> sources;
  std::vector<recon::ElementRead> parity_rebuild_reads;

  int read_accesses(const layout::Architecture& arch) const;
};

namespace vector_plan {

inline int max_per_disk(
    const layout::Architecture& arch,
    const std::vector<const std::vector<recon::ElementRead>*>& lists) {
  std::vector<int> per_disk(static_cast<std::size_t>(arch.total_disks()), 0);
  for (const auto* list : lists)
    for (const auto& read : *list)
      ++per_disk[static_cast<std::size_t>(read.logical_disk)];
  return *std::max_element(per_disk.begin(), per_disk.end());
}

inline bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

// The (disk, row) cells of one stripe as a bitset, bit disk * rows + row,
// so ascending bit order is ascending (logical_disk, row) order. Each
// plan_mirror call owns its set: MultiKernel threads plan concurrently.
class CellSet {
 public:
  CellSet(int disks, int rows)
      : rows_(static_cast<std::size_t>(rows)),
        words_((static_cast<std::size_t>(disks) * rows_ + 63) / 64) {}

  /// True when the cell was not in the set yet.
  bool insert(int disk, int row) {
    const std::size_t b = bit(disk, row);
    const std::uint64_t mask = std::uint64_t{1} << (b % 64);
    const bool fresh = (words_[b / 64] & mask) == 0;
    words_[b / 64] |= mask;
    return fresh;
  }

  bool contains(int disk, int row) const {
    const std::size_t b = bit(disk, row);
    return (words_[b / 64] >> (b % 64)) & 1;
  }

  /// Every cell, in ascending (logical_disk, row) order.
  std::vector<recon::ElementRead> reads() const {
    std::size_t count = 0;
    for (const std::uint64_t word : words_) count += std::popcount(word);
    std::vector<recon::ElementRead> out;
    out.reserve(count);
    for (std::size_t w = 0; w < words_.size(); ++w)
      for (std::uint64_t word = words_[w]; word != 0; word &= word - 1) {
        const std::size_t b =
            w * 64 + static_cast<std::size_t>(std::countr_zero(word));
        out.push_back({static_cast<int>(b / rows_),
                       static_cast<int>(b % rows_)});
      }
    return out;
  }

 private:
  std::size_t bit(int disk, int row) const {
    return static_cast<std::size_t>(disk) * rows_ +
           static_cast<std::size_t>(row);
  }

  std::size_t rows_;
  std::vector<std::uint64_t> words_;
};

inline Result<ReferenceVectorPlan> plan_mirror(
    const layout::Architecture& arch, const std::vector<int>& failed) {
  const int n = arch.n();
  const int replicas = arch.replicas();
  CellSet availability(arch.total_disks(), arch.rows());
  bool parity_failed = false;
  for (const int disk : failed)
    if (arch.role_of(disk) == layout::DiskRole::kParity) parity_failed = true;
  ReferenceVectorPlan plan;
  // Reads already planned per disk: with R >= 2 a lost cell has a choice
  // of copies and takes the least-loaded one. Kept off the R = 1 path,
  // where every lost cell has one live copy at most.
  std::vector<int> load;
  if (replicas >= 2)
    load.assign(static_cast<std::size_t>(arch.total_disks()), 0);

  // Every lost data/replica cell, in `failed` order, from one of its
  // live copies: data copy first, then replica arrays 1..R. A copy
  // already in the read set is free; otherwise the least-loaded disk
  // wins, ties going to the earlier copy.
  for (const int disk : failed) {
    const int array = arch.array_of(disk);
    if (array < 0) continue;  // parity: recomputed below
    const int local = arch.role_index(disk);
    for (int j = 0; j < arch.rows(); ++j) {
      const layout::Pos src =
          array == 0 ? layout::Pos{local, j}
                     : arch.replicated_by(array, local, j);
      layout::Pos best{-1, -1};
      for (int c = 0; c <= replicas; ++c) {
        if (c == array) continue;
        const layout::Pos copy = arch.copy_of(c, src.disk, src.row);
        if (contains(failed, copy.disk)) continue;
        if (availability.contains(copy.disk, copy.row)) {
          best = copy;
          break;
        }
        if (best.disk < 0 || load[static_cast<std::size_t>(copy.disk)] <
                                 load[static_cast<std::size_t>(best.disk)])
          best = copy;
      }
      if (best.disk >= 0) {
        const bool fresh = availability.insert(best.disk, best.row);
        if (!load.empty()) {
          if (fresh) ++load[static_cast<std::size_t>(best.disk)];
          plan.sources.push_back({disk, j, {best.disk, best.row}});
        }
        continue;
      }
      // Every copy lost (F3 overlap element): the data cell recovers it
      // via the parity row — the other data elements of row j plus c_j —
      // and a lost replica cell of it needs no extra reads.
      if (array != 0) continue;
      if (!arch.has_parity() || parity_failed)
        return unrecoverable(
            "element and its replica both lost without usable parity");
      for (int i = 0; i < n; ++i) {
        if (i == local) continue;
        assert(!contains(failed, arch.data_disk(i)) &&
               "double data failure cannot also lose a replica");
        availability.insert(arch.data_disk(i), j);
      }
      availability.insert(arch.parity_disk(), j);
    }
  }
  plan.availability_reads = availability.reads();

  // A lost parity disk is recomputed from the full data array; only the
  // reads not already issued for availability are extra. Data disks come
  // first in global numbering, so these too are in (disk, row) order.
  if (parity_failed) {
    int live_data = n;
    for (const int disk : failed)
      if (arch.array_of(disk) == 0) --live_data;
    plan.parity_rebuild_reads.reserve(static_cast<std::size_t>(live_data) *
                                      static_cast<std::size_t>(arch.rows()));
    for (int i = 0; i < n; ++i) {
      if (contains(failed, arch.data_disk(i))) continue;
      for (int j = 0; j < arch.rows(); ++j)
        if (!availability.contains(arch.data_disk(i), j))
          plan.parity_rebuild_reads.push_back({arch.data_disk(i), j});
    }
  }
  return plan;
}

inline Result<ReferenceVectorPlan> plan_raid(const layout::Architecture& arch,
                                             const std::vector<int>& failed) {
  // RAID-5/6 decode reads every intact column (the paper's Section II
  // observation, made slightly worse by shortening). A failure that
  // loses no data column needs no availability reads, but recomputing
  // the lost parity still reads all data columns.
  bool data_lost = false;
  for (const int disk : failed)
    if (arch.role_of(disk) == layout::DiskRole::kData) data_lost = true;

  ReferenceVectorPlan plan;
  const auto rows = static_cast<std::size_t>(arch.rows());
  if (data_lost)
    plan.availability_reads.reserve(
        (static_cast<std::size_t>(arch.total_disks()) - failed.size()) * rows);
  else
    plan.parity_rebuild_reads.reserve(static_cast<std::size_t>(arch.n()) *
                                      rows);
  for (int disk = 0; disk < arch.total_disks(); ++disk) {
    if (contains(failed, disk)) continue;
    for (int j = 0; j < arch.rows(); ++j) {
      if (data_lost)
        plan.availability_reads.push_back({disk, j});
      else if (arch.role_of(disk) == layout::DiskRole::kData)
        plan.parity_rebuild_reads.push_back({disk, j});
    }
  }
  return plan;
}

}  // namespace vector_plan

inline int ReferenceVectorPlan::read_accesses(
    const layout::Architecture& arch) const {
  return vector_plan::max_per_disk(arch, {&availability_reads});
}

inline Result<ReferenceVectorPlan> reference_vector_plan(
    const layout::Architecture& arch, const std::vector<int>& failed) {
  for (std::size_t i = 0; i < failed.size(); ++i) {
    if (failed[i] < 0 || failed[i] >= arch.total_disks())
      return invalid_argument("failed disk index out of range");
    for (std::size_t j = i + 1; j < failed.size(); ++j)
      if (failed[i] == failed[j])
        return invalid_argument("duplicate failed disk index");
  }
  if (static_cast<int>(failed.size()) > arch.fault_tolerance())
    return unrecoverable(arch.name() + " cannot survive " +
                         std::to_string(failed.size()) + " failures");
  if (failed.empty()) return ReferenceVectorPlan{};
  if (arch.is_mirror()) return vector_plan::plan_mirror(arch, failed);
  return vector_plan::plan_raid(arch, failed);
}

/// Every registry layout that builds for n = 2..6: the plain mirror,
/// and the mirror with parity where the layout supports a second
/// failure. Then, for n = 2..6, the traditional and shifted mirrors
/// with R = 2 and 3 replica arrays where they build (shifted needs
/// phi(n) >= R), and RAID-5 and RAID-6.
inline std::vector<layout::Architecture> differential_architectures() {
  std::vector<layout::Architecture> out;
  for (const std::string& name : layout::AlgorithmRegistry::global().names()) {
    for (int n = 2; n <= 6; ++n) {
      auto plain = layout::Architecture::mirror_named(n, name);
      if (plain.is_ok()) out.push_back(plain.value());
      auto parity = layout::Architecture::mirror_with_parity_named(n, name);
      if (parity.is_ok()) out.push_back(parity.value());
    }
  }
  for (int n = 2; n <= 6; ++n) {
    for (const char* name : {"traditional", "shifted"}) {
      for (int replicas = 2; replicas <= 3; ++replicas) {
        auto multi = layout::Architecture::mirror_named(n, name, replicas);
        if (multi.is_ok()) out.push_back(multi.value());
      }
    }
    out.push_back(layout::Architecture::raid5(n));
    out.push_back(layout::Architecture::raid6(n));
  }
  return out;
}

/// Calls fn(failed) for every failed set the differential tests cover:
/// every subset of the disks when the array has at most 11, else every
/// subset of size <= 3; both in ascending disk order.
inline void for_each_failed_set(
    const layout::Architecture& arch,
    const std::function<void(const std::vector<int>&)>& fn) {
  const int total = arch.total_disks();
  std::vector<int> failed;
  if (total <= 11) {
    for (unsigned mask = 0; mask < (1u << total); ++mask) {
      failed.clear();
      for (int d = 0; d < total; ++d)
        if (mask & (1u << d)) failed.push_back(d);
      fn(failed);
    }
    return;
  }
  fn({});
  for (int a = 0; a < total; ++a) {
    fn({a});
    for (int b = a + 1; b < total; ++b) {
      fn({a, b});
      for (int c = b + 1; c < total; ++c) fn({a, b, c});
    }
  }
}

/// Per-array actor state. The lifecycle is replaced wholesale after a
/// data loss (kDataLoss is terminal by design); `fail_epoch` /
/// `repair_epoch` invalidate events scheduled under a stale hazard —
/// the kernel has no cancellation, so superseded events no-op instead.
struct ReferenceArrayActor {
  Rng rng{0};
  std::unique_ptr<repair::Lifecycle> lc;
  std::vector<int> failed;
  bool in_repair = false;
  bool restoring = false;
  int fail_epoch = 0;
  int repair_epoch = 0;
};

inline Result<fleet::TimelineReport> reference_failure_timeline(
    const layout::Architecture& arch, const fleet::TimelineConfig& cfg) {
  if (cfg.arrays <= 0) return invalid_argument("timeline needs arrays > 0");
  if (!(cfg.horizon_hours > 0.0) || !(cfg.disk_mttf_hours > 0.0) ||
      !(cfg.repair_hours > 0.0))
    return invalid_argument(
        "timeline horizon, disk MTTF and repair time must be positive");
  if (cfg.domain_size < 0)
    return invalid_argument("timeline domain_size must be >= 0");
  if (cfg.domain_size > 0 && !(std::isfinite(cfg.domain_hazard_factor) &&
                               cfg.domain_hazard_factor >= 1.0))
    return invalid_argument(
        "timeline domain_hazard_factor must be finite and >= 1 with domains "
        "enabled");

  const int disks = arch.total_disks();
  obs::Observer* const ob = cfg.observer.get();
  sim::Simulation sim;
  if (ob != nullptr) sim.set_observer(ob);

  std::vector<ReferenceArrayActor> actors(
      static_cast<std::size_t>(cfg.arrays));
  std::uint64_t seed_state = cfg.seed;
  for (auto& actor : actors) {
    actor.rng = Rng(splitmix64(seed_state));
    actor.lc = std::make_unique<repair::Lifecycle>(arch, cfg.observer);
  }

  fleet::TimelineReport report;
  report.arrays = cfg.arrays;
  report.horizon_hours = cfg.horizon_hours;

  // Time-weighted concurrency accounting, advanced at every event.
  int active = 0;  // arrays with an in-flight repair or restore
  double last_t = 0.0;
  double active_integral = 0.0;
  double time_ge1 = 0.0;
  double time_ge2 = 0.0;
  auto account_to = [&](double t) {
    const double dt = t - last_t;
    if (dt <= 0.0) return;
    active_integral += static_cast<double>(active) * dt;
    if (active >= 1) time_ge1 += dt;
    if (active >= 2) time_ge2 += dt;
    last_t = t;
  };

  if (ob != nullptr && ob->metrics != nullptr)
    ob->metrics->add_probe("fleet.concurrent_rebuilds",
                           [&active](double, double) {
                             return static_cast<double>(active);
                           });

  // Failure-domain stress: per-domain count of members holding an
  // in-flight repair or restore. A stressed member's hazard is boosted,
  // and every status flip redraws the pending failure draws of the
  // domain's other members (in index order, each from its own RNG, so
  // the timeline stays a pure function of the config).
  const int dsize = cfg.domain_size;
  const bool domains = dsize > 0 && cfg.domain_hazard_factor > 1.0;
  std::vector<int> domain_active(
      domains ? static_cast<std::size_t>((cfg.arrays + dsize - 1) / dsize)
              : 0,
      0);

  std::function<void(int)> schedule_failure;
  auto redraw_domain = [&](int a) {
    if (!domains) return;
    const int lo = (a / dsize) * dsize;
    const int hi = std::min(cfg.arrays, lo + dsize);
    for (int m = lo; m < hi; ++m) {
      if (m == a) continue;
      ReferenceArrayActor& other = actors[static_cast<std::size_t>(m)];
      if (other.restoring) continue;  // offline: no pending draw
      ++other.fail_epoch;
      schedule_failure(m);
    }
  };

  schedule_failure = [&](int a) {
    ReferenceArrayActor& actor = actors[static_cast<std::size_t>(a)];
    const int live = disks - static_cast<int>(actor.failed.size());
    if (live <= 0) return;
    double mean = cfg.disk_mttf_hours / static_cast<double>(live);
    if (domains) {
      const int self = (actor.in_repair || actor.restoring) ? 1 : 0;
      if (domain_active[static_cast<std::size_t>(a / dsize)] > self)
        mean /= cfg.domain_hazard_factor;
    }
    const double dt = actor.rng.next_exponential(mean);
    const double when = sim.now() + dt;
    if (when > cfg.horizon_hours) return;
    const int epoch = actor.fail_epoch;
    sim.schedule_at(when, [&, a, epoch] {
      ReferenceArrayActor& act = actors[static_cast<std::size_t>(a)];
      if (epoch != act.fail_epoch || act.restoring) return;
      account_to(sim.now());
      ++report.failures;
      if (ob != nullptr) ob->count("fleet.failures");
      // Draw the victim uniformly among live disks.
      const int nlive = disks - static_cast<int>(act.failed.size());
      int pick = static_cast<int>(
          act.rng.next_below(static_cast<std::uint64_t>(nlive)));
      int victim = -1;
      for (int d = 0; d < disks; ++d) {
        if (std::find(act.failed.begin(), act.failed.end(), d) !=
            act.failed.end())
          continue;
        if (pick-- == 0) {
          victim = d;
          break;
        }
      }
      act.failed.push_back(victim);
      (void)act.lc->on_failure(sim.now(), victim);
      if (act.lc->state() == repair::ArrayState::kDataLoss) {
        // The exact recoverability oracle says this set lost data. The
        // array restores from backup; it is offline (cannot fail again)
        // until the restore completes.
        ++report.data_loss_events;
        if (ob != nullptr) ob->count("fleet.data_loss_events");
        report.transitions += act.lc->history().size();
        act.lc = std::make_unique<repair::Lifecycle>(arch, cfg.observer);
        act.failed.clear();
        const bool was_active = act.in_repair;
        if (!was_active) ++active;
        act.in_repair = false;
        act.restoring = true;
        if (domains && !was_active) {
          ++domain_active[static_cast<std::size_t>(a / dsize)];
          redraw_domain(a);
        }
        ++act.fail_epoch;
        ++act.repair_epoch;
        const int repoch = act.repair_epoch;
        const double done = sim.now() + cfg.repair_hours;
        if (done <= cfg.horizon_hours) {
          sim.schedule_at(done, [&, a, repoch] {
            ReferenceArrayActor& ra = actors[static_cast<std::size_t>(a)];
            if (repoch != ra.repair_epoch || !ra.restoring) return;
            account_to(sim.now());
            ra.restoring = false;
            --active;
            if (domains) {
              --domain_active[static_cast<std::size_t>(a / dsize)];
              redraw_domain(a);
            }
            ++ra.fail_epoch;
            schedule_failure(a);
          });
        }
        report.max_concurrent_rebuilds =
            std::max(report.max_concurrent_rebuilds, active);
        return;
      }
      (void)act.lc->on_repair_start(sim.now(), victim);
      if (!act.in_repair) {
        act.in_repair = true;
        ++active;
        report.max_concurrent_rebuilds =
            std::max(report.max_concurrent_rebuilds, active);
        if (domains) {
          ++domain_active[static_cast<std::size_t>(a / dsize)];
          redraw_domain(a);
        }
      }
      // (Re)arm the rebuild: an additional failure mid-rebuild restarts
      // the clock (the executor replans the whole stripe set).
      ++act.repair_epoch;
      const int repoch = act.repair_epoch;
      const double done = sim.now() + cfg.repair_hours;
      if (done <= cfg.horizon_hours) {
        sim.schedule_at(done, [&, a, repoch] {
          ReferenceArrayActor& ra = actors[static_cast<std::size_t>(a)];
          if (repoch != ra.repair_epoch || !ra.in_repair) return;
          account_to(sim.now());
          for (const int d : ra.failed)
            (void)ra.lc->on_repair_complete(sim.now(), d);
          ra.failed.clear();
          ra.in_repair = false;
          --active;
          ++report.repairs_completed;
          if (domains) {
            --domain_active[static_cast<std::size_t>(a / dsize)];
            redraw_domain(a);
          }
          ++ra.fail_epoch;
          schedule_failure(a);
        });
      }
      // The hazard changed (one fewer live disk): redraw the next
      // failure under the new rate. Exponential memorylessness makes
      // the redraw distribution-exact.
      ++act.fail_epoch;
      schedule_failure(a);
    });
  };

  for (int a = 0; a < cfg.arrays; ++a) schedule_failure(a);
  sim.run();
  account_to(cfg.horizon_hours);

  for (const auto& actor : actors)
    report.transitions += actor.lc->history().size();
  report.mean_concurrent_rebuilds = active_integral / cfg.horizon_hours;
  report.frac_time_rebuilding = time_ge1 / cfg.horizon_hours;
  report.frac_time_ge2 = time_ge2 / cfg.horizon_hours;
  report.array_hours_degraded = active_integral;

  std::uint64_t d = fleet::kDigestSeed;
  d = fleet::mix(d, static_cast<std::uint64_t>(report.failures));
  d = fleet::mix(d, static_cast<std::uint64_t>(report.repairs_completed));
  d = fleet::mix(d, static_cast<std::uint64_t>(report.data_loss_events));
  d = fleet::mix(d, static_cast<std::uint64_t>(report.max_concurrent_rebuilds));
  d = fleet::mix(d, report.mean_concurrent_rebuilds);
  d = fleet::mix(d, report.frac_time_rebuilding);
  d = fleet::mix(d, report.frac_time_ge2);
  d = fleet::mix(d, report.transitions);
  report.digest = d;

  if (ob != nullptr && ob->metrics != nullptr) ob->metrics->clear_probes();
  return report;
}

}  // namespace sma::testref
