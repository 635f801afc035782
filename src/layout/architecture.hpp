// Stripe-level RAID architectures assembled from arrangements + codecs.
//
// An Architecture fixes the disk population of one stripe (global disk
// indices), the per-disk row count, and — for mirror organizations —
// the element arrangement in the mirror array. The reconstruction
// planner (src/recon) consumes this description to derive read plans.
//
// A mirror kind keeps R >= 1 replica arrays (R = 1 is the paper's
// mirror method, R = 2 the three-mirror method of GFS and Ceph, the
// paper's Section VIII future work), each one Arrangement table. Under
// the traditional layout every replica array is the identity; under
// shifted, replica array r uses the affine map
// a(i, j) -> (<i + c_r j>_n, i) with c_r the r-th unit mod n
// (layout::affine_shift), so array 1 is the paper's shifted
// arrangement and any R failed disks leave every element a live copy.
//
// Global disk numbering:
//   mirror kinds:          [0, n) data, replica array r at [r n, (r+1) n)
//                          for r = 1..R, then {(R+1) n} parity (if any)
//   raid5:                 [0, n) data, {n} parity
//   raid6 (shortened):     [0, n) data, {n, n+1} parity (P, Q)
#pragma once

#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "layout/registry.hpp"

namespace sma::layout {

/// Disk population of one stripe. A mirror kind's element placement is
/// its layout-registry arrangement; the kind itself only says whether
/// the parity disk is present.
enum class ArchKind {
  kMirror,
  kMirrorParity,
  kRaid5,
  kRaid6,
};

enum class DiskRole { kData, kMirror, kParity };

class Architecture {
 public:
  /// RAID-1 style: n data disks + n mirror disks, n rows per stripe,
  /// with the "shifted" or "traditional" registry layout.
  static Architecture mirror(int n, bool shifted);

  /// Fault-tolerance-2 variant: adds one parity disk with
  /// c_j = XOR_i a(i, j) (paper Section V).
  static Architecture mirror_with_parity(int n, bool shifted);

  /// Mirror built from a layout-registry spec ("shifted", "lrc:groups=2",
  /// "iterated:3", ...) with `replicas` replica arrays. Resolves through
  /// AlgorithmRegistry::global(). R >= 2 takes only "traditional" and
  /// "shifted", and shifted needs R units mod n (phi(n) >= R).
  static Result<Architecture> mirror_named(int n, const std::string& layout,
                                           int replicas = 1);

  /// Parity-protected variant of mirror_named (one replica array).
  /// Refuses layouts whose descriptor clears supports_second_failure.
  static Result<Architecture> mirror_with_parity_named(
      int n, const std::string& layout);

  /// Comparators from the paper's background section.
  static Architecture raid5(int n);
  /// RAID-6 via a shortened prime code (rows = p-1, p = smallest prime
  /// >= n+1), matching the paper's Fig. 7 "shorten"-method comparator.
  static Architecture raid6(int n);

  ArchKind kind() const { return kind_; }
  int n() const { return n_; }
  int rows() const { return rows_; }
  int total_disks() const { return total_disks_; }
  int fault_tolerance() const {
    switch (kind_) {
      case ArchKind::kMirror: return replicas_;
      case ArchKind::kMirrorParity:
      case ArchKind::kRaid6: return 2;
      case ArchKind::kRaid5: return 1;
    }
    return 1;
  }
  double storage_efficiency() const;
  std::string name() const;

  bool is_mirror() const {
    return kind_ == ArchKind::kMirror || kind_ == ArchKind::kMirrorParity;
  }
  bool has_parity() const { return kind_ != ArchKind::kMirror; }
  int parity_disks() const {
    switch (kind_) {
      case ArchKind::kMirror: return 0;
      case ArchKind::kMirrorParity:
      case ArchKind::kRaid5: return 1;
      case ArchKind::kRaid6: return 2;
    }
    return 0;
  }
  /// Replica arrays R (mirror kinds; 0 for RAID-5/6).
  int replicas() const { return replicas_; }

  /// Registry spec that (re)builds this architecture's arrangement.
  /// Empty for RAID-5/6.
  const std::string& layout_spec() const { return layout_spec_; }

  /// Arrangement of replica array 1 (the registry layout); nullptr for
  /// RAID-5/6.
  const Arrangement* arrangement() const {
    return arrays_ ? &arrays_->front() : nullptr;
  }

  // --- global disk index helpers -------------------------------------
  // Inline: the planner calls them for every copy of every lost cell.
  int data_disk(int i) const {
    assert(i >= 0 && i < n_);
    return i;
  }
  /// Global index of disk `local` of replica array r (1..R).
  int replica_disk(int array_r, int local) const {
    assert(is_mirror());
    assert(array_r >= 1 && array_r <= replicas_);
    assert(local >= 0 && local < n_);
    return array_r * n_ + local;
  }
  int parity_disk(int which = 0) const {
    assert(has_parity());
    assert(which >= 0 && which < parity_disks());
    return (is_mirror() ? (replicas_ + 1) * n_ : n_) + which;
  }
  DiskRole role_of(int disk) const {
    assert(disk >= 0 && disk < total_disks_);
    if (disk < n_) return DiskRole::kData;
    if (is_mirror() && disk < (replicas_ + 1) * n_) return DiskRole::kMirror;
    return DiskRole::kParity;
  }
  /// Index within its array (data i, replica-array local index, or
  /// parity ordinal).
  int role_index(int disk) const {
    switch (role_of(disk)) {
      case DiskRole::kData: return disk;
      case DiskRole::kMirror: return disk % n_;
      case DiskRole::kParity:
        return disk - (is_mirror() ? (replicas_ + 1) * n_ : n_);
    }
    return -1;
  }
  /// 0 for a data disk, r for a disk of replica array r, -1 for parity.
  int array_of(int disk) const {
    switch (role_of(disk)) {
      case DiskRole::kData: return 0;
      case DiskRole::kMirror: return disk / n_;
      case DiskRole::kParity: return -1;
    }
    return -1;
  }

  /// Global position of the copy of data element a(i, j) in replica
  /// array r (1..R); mirror kinds only.
  Pos replica_of(int array_r, int data_disk_index, int row) const {
    const Pos local = replica_array(array_r).mirror_of(data_disk_index, row);
    return {array_r * n_ + local.disk, local.row};
  }
  /// Copy c of a(i, j): c = 0 is the data copy, c = r the replica in
  /// array r.
  Pos copy_of(int c, int data_disk_index, int row) const {
    return c == 0 ? Pos{data_disk(data_disk_index), row}
                  : replica_of(c, data_disk_index, row);
  }
  /// Which data element cell (local, row) of replica array r holds;
  /// mirror kinds only. Returned Pos.disk is the *data disk index*.
  Pos replicated_by(int array_r, int local, int row) const {
    return replica_array(array_r).data_of(local, row);
  }

 private:
  Architecture() = default;
  const Arrangement& replica_array(int array_r) const {
    assert(is_mirror());
    assert(array_r >= 1 && array_r <= replicas_);
    return (*arrays_)[static_cast<std::size_t>(array_r - 1)];
  }

  ArchKind kind_ = ArchKind::kMirror;
  int n_ = 0;
  int rows_ = 0;
  int total_disks_ = 0;
  int replicas_ = 0;
  std::string layout_spec_;
  /// Replica array r's arrangement at [r - 1]; shared by copies.
  std::shared_ptr<const std::vector<Arrangement>> arrays_;
};

}  // namespace sma::layout
