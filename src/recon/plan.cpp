#include "recon/plan.hpp"

#include <cassert>

namespace sma::recon {

namespace {

Result<StripePlan> plan_mirror(const layout::Architecture& arch,
                               const std::vector<int>& failed,
                               const std::vector<char>& failed_mask) {
  const int n = arch.n();
  const int rows = arch.rows();
  const int replicas = arch.replicas();
  const auto down = [&failed_mask](int disk) {
    return failed_mask[static_cast<std::size_t>(disk)] != 0;
  };
  const bool parity_failed = arch.has_parity() && down(arch.parity_disk());
  StripePlan plan;
  ReadSet& reads = plan.availability_reads;
  reads = ReadSet(arch.total_disks(), rows);

  // Every lost data/replica cell, in `failed` order, from one of its
  // live copies: data copy first, then replica arrays 1..R. A copy
  // already in the read set is free; otherwise the disk with the fewest
  // planned reads wins, ties going to the earlier copy. At R = 1 a lost
  // cell has one live copy at most, so no counts are compared.
  for (const int disk : failed) {
    const int array = arch.array_of(disk);
    if (array < 0) continue;  // parity: recomputed below
    const int local = arch.role_index(disk);
    for (int j = 0; j < rows; ++j) {
      const layout::Pos src =
          array == 0 ? layout::Pos{local, j}
                     : arch.replicated_by(array, local, j);
      layout::Pos best{-1, -1};
      for (int c = 0; c <= replicas; ++c) {
        if (c == array) continue;
        const layout::Pos copy = arch.copy_of(c, src.disk, src.row);
        if (down(copy.disk)) continue;
        if (reads.contains(copy.disk, copy.row)) {
          best = copy;
          break;
        }
        if (best.disk < 0 || reads.count(copy.disk) < reads.count(best.disk))
          best = copy;
      }
      if (best.disk >= 0) {
        reads.insert(best.disk, best.row);
        if (replicas >= 2)
          plan.sources.push_back({disk, j, {best.disk, best.row}});
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
        assert(!down(arch.data_disk(i)) &&
               "double data failure cannot also lose a replica");
        reads.insert(arch.data_disk(i), j);
      }
      reads.insert(arch.parity_disk(), j);
    }
  }

  // A lost parity disk is recomputed from the full data array; only the
  // reads not already issued for availability are extra.
  if (parity_failed) {
    ReadSet& extra = plan.parity_rebuild_reads;
    extra = ReadSet(arch.total_disks(), rows);
    for (int i = 0; i < n; ++i) {
      const int d = arch.data_disk(i);
      if (down(d)) continue;
      for (int j = 0; j < rows; ++j)
        if (!reads.contains(d, j)) extra.insert(d, j);
    }
  }
  return plan;
}

Result<StripePlan> plan_raid(const layout::Architecture& arch,
                             const std::vector<int>& failed,
                             const std::vector<char>& failed_mask) {
  // RAID-5/6 decode reads every intact column (the paper's Section II
  // observation, made slightly worse by shortening). A failure that
  // loses no data column needs no availability reads, but recomputing
  // the lost parity still reads all data columns.
  bool data_lost = false;
  for (const int disk : failed)
    if (arch.role_of(disk) == layout::DiskRole::kData) data_lost = true;

  StripePlan plan;
  ReadSet& reads =
      data_lost ? plan.availability_reads : plan.parity_rebuild_reads;
  reads = ReadSet(arch.total_disks(), arch.rows());
  for (int disk = 0; disk < arch.total_disks(); ++disk) {
    if (failed_mask[static_cast<std::size_t>(disk)] != 0) continue;
    if (data_lost || arch.role_of(disk) == layout::DiskRole::kData)
      reads.insert_all_rows(disk);
  }
  return plan;
}

}  // namespace

int StripePlan::read_accesses(
    [[maybe_unused]] const layout::Architecture& arch) const {
  assert(availability_reads.disks() == 0 ||
         availability_reads.disks() == arch.total_disks());
  return availability_reads.max_per_disk();
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
  // One flag per logical disk: the planner asks it about every copy of
  // every lost cell.
  std::vector<char> mask(static_cast<std::size_t>(arch.total_disks()), 0);
  for (const int disk : failed) mask[static_cast<std::size_t>(disk)] = 1;
  if (arch.is_mirror()) return plan_mirror(arch, failed, mask);
  return plan_raid(arch, failed, mask);
}

}  // namespace sma::recon
