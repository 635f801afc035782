#include "recon/plan.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>

namespace sma::recon {

namespace {

int max_per_disk(const layout::Architecture& arch,
                 const std::vector<const std::vector<ElementRead>*>& lists) {
  std::vector<int> per_disk(static_cast<std::size_t>(arch.total_disks()), 0);
  for (const auto* list : lists)
    for (const auto& read : *list)
      ++per_disk[static_cast<std::size_t>(read.logical_disk)];
  return *std::max_element(per_disk.begin(), per_disk.end());
}

bool contains(const std::vector<int>& v, int x) {
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
  std::vector<ElementRead> reads() const {
    std::size_t count = 0;
    for (const std::uint64_t word : words_) count += std::popcount(word);
    std::vector<ElementRead> out;
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

Result<StripePlan> plan_mirror(const layout::Architecture& arch,
                               const std::vector<int>& failed) {
  const int n = arch.n();
  const int replicas = arch.replicas();
  CellSet availability(arch.total_disks(), arch.rows());
  bool parity_failed = false;
  for (const int disk : failed)
    if (arch.role_of(disk) == layout::DiskRole::kParity) parity_failed = true;
  StripePlan plan;
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

Result<StripePlan> plan_raid(const layout::Architecture& arch,
                             const std::vector<int>& failed) {
  // RAID-5/6 decode reads every intact column (the paper's Section II
  // observation, made slightly worse by shortening). A failure that
  // loses no data column needs no availability reads, but recomputing
  // the lost parity still reads all data columns.
  bool data_lost = false;
  for (const int disk : failed)
    if (arch.role_of(disk) == layout::DiskRole::kData) data_lost = true;

  StripePlan plan;
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

}  // namespace

int StripePlan::read_accesses(const layout::Architecture& arch) const {
  return max_per_disk(arch, {&availability_reads});
}

int StripePlan::total_read_accesses(const layout::Architecture& arch) const {
  return max_per_disk(arch, {&availability_reads, &parity_rebuild_reads});
}

Result<StripePlan> plan_reconstruction(const layout::Architecture& arch,
                                       const std::vector<int>& failed) {
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
  if (failed.empty()) return StripePlan{};
  if (arch.is_mirror()) return plan_mirror(arch, failed);
  return plan_raid(arch, failed);
}

}  // namespace sma::recon
