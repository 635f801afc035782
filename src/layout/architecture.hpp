// Stripe-level RAID architectures assembled from arrangements + codecs.
//
// An Architecture fixes the disk population of one stripe (global disk
// indices), the per-disk row count, and — for mirror organizations —
// the element arrangement in the mirror array. The reconstruction
// planner (src/recon) consumes this description to derive read plans.
//
// Global disk numbering:
//   mirror kinds:          [0, n) data, [n, 2n) mirror, {2n} parity (if any)
//   raid5:                 [0, n) data, {n} parity
//   raid6 (shortened):     [0, n) data, {n, n+1} parity (P, Q)
#pragma once

#include <memory>
#include <string>

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
  /// "iterated:3", ...). Resolves through AlgorithmRegistry::global().
  static Result<Architecture> mirror_named(int n, const std::string& layout);

  /// Parity-protected variant of mirror_named. Refuses layouts whose
  /// descriptor clears supports_second_failure.
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
  int fault_tolerance() const;
  double storage_efficiency() const;
  std::string name() const;

  bool is_mirror() const;
  bool has_parity() const;
  int parity_disks() const;

  /// Registry spec that (re)builds this architecture's arrangement.
  /// Empty for RAID-5/6.
  const std::string& layout_spec() const { return layout_spec_; }

  /// Arrangement of the mirror array; nullptr for RAID-5/6.
  const RegistryArrangement* arrangement() const { return arrangement_.get(); }

  // --- global disk index helpers -------------------------------------
  int data_disk(int i) const;
  int mirror_disk(int i) const;
  int parity_disk(int which = 0) const;
  DiskRole role_of(int disk) const;
  /// Index within its role (data i, mirror i, or parity ordinal).
  int role_index(int disk) const;

  /// Global position of the replica of data element a(i, j); mirror
  /// kinds only.
  Pos replica_of(int data_disk_index, int row) const;
  /// Which data element the mirror cell (mirror index, row) replicates;
  /// mirror kinds only. Returned Pos.disk is the *data disk index*.
  Pos replicated_by(int mirror_disk_index, int row) const;

 private:
  Architecture() = default;

  ArchKind kind_ = ArchKind::kMirror;
  int n_ = 0;
  int rows_ = 0;
  int total_disks_ = 0;
  std::string layout_spec_;
  std::shared_ptr<const RegistryArrangement> arrangement_;
};

}  // namespace sma::layout
