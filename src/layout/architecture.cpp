#include "layout/architecture.hpp"

#include <cassert>
#include <utility>

#include "ec/prime.hpp"

namespace sma::layout {

Architecture Architecture::mirror(int n, bool shifted) {
  return mirror_named(n, shifted ? "shifted" : "traditional").take();
}

Architecture Architecture::mirror_with_parity(int n, bool shifted) {
  return mirror_with_parity_named(n, shifted ? "shifted" : "traditional")
      .take();
}

Result<Architecture> Architecture::mirror_named(int n,
                                                const std::string& layout) {
  if (n < 1) return invalid_argument("mirror architecture needs n >= 1");
  auto arr = AlgorithmRegistry::global().make(layout, n);
  if (!arr.is_ok()) return arr.status();
  Architecture a;
  a.kind_ = ArchKind::kMirror;
  a.n_ = n;
  a.rows_ = n;
  a.total_disks_ = 2 * n;
  a.layout_spec_ = layout;
  a.arrangement_ = std::move(arr).take();
  return a;
}

Result<Architecture> Architecture::mirror_with_parity_named(
    int n, const std::string& layout) {
  auto base = mirror_named(n, layout);
  if (!base.is_ok()) return base.status();
  Architecture a = std::move(base).take();
  if (!a.arrangement_->descriptor().supports_second_failure)
    return failed_precondition("layout '" + a.arrangement_->name() +
                               "' does not support the second-failure "
                               "(mirror + parity) machinery");
  a.kind_ = ArchKind::kMirrorParity;
  a.total_disks_ = 2 * n + 1;
  return a;
}

Architecture Architecture::raid5(int n) {
  assert(n >= 1);
  Architecture a;
  a.kind_ = ArchKind::kRaid5;
  a.n_ = n;
  a.rows_ = n;  // same stripe depth convention as the mirror methods
  a.total_disks_ = n + 1;
  return a;
}

Architecture Architecture::raid6(int n) {
  assert(n >= 1);
  Architecture a;
  a.kind_ = ArchKind::kRaid6;
  a.n_ = n;
  // Shortened prime code (EVENODD/RDP style): stripe depth p-1 with the
  // smallest prime p >= n+1. This is what makes the paper's Fig. 7
  // RAID-6 throughput "a little lower" than the traditional mirror
  // method with parity.
  a.rows_ = ec::next_prime_at_least(std::max(3, n + 1)) - 1;
  a.total_disks_ = n + 2;
  return a;
}

int Architecture::fault_tolerance() const {
  return kind_ == ArchKind::kMirrorParity || kind_ == ArchKind::kRaid6 ? 2 : 1;
}

double Architecture::storage_efficiency() const {
  const double data_disks = n_;
  return data_disks / total_disks_;
}

bool Architecture::is_mirror() const {
  return kind_ == ArchKind::kMirror || kind_ == ArchKind::kMirrorParity;
}

bool Architecture::has_parity() const { return kind_ != ArchKind::kMirror; }

int Architecture::parity_disks() const {
  switch (kind_) {
    case ArchKind::kMirror: return 0;
    case ArchKind::kMirrorParity:
    case ArchKind::kRaid5: return 1;
    case ArchKind::kRaid6: return 2;
  }
  return 0;
}

std::string Architecture::name() const {
  switch (kind_) {
    case ArchKind::kMirror:
      return "mirror-" + arrangement_->name();
    case ArchKind::kMirrorParity:
      return "mirror-parity-" + arrangement_->name();
    case ArchKind::kRaid5: return "raid5";
    case ArchKind::kRaid6: return "raid6-shortened";
  }
  return "unknown";
}

int Architecture::data_disk(int i) const {
  assert(i >= 0 && i < n_);
  return i;
}

int Architecture::mirror_disk(int i) const {
  assert(is_mirror());
  assert(i >= 0 && i < n_);
  return n_ + i;
}

int Architecture::parity_disk(int which) const {
  assert(has_parity());
  assert(which >= 0 && which < parity_disks());
  if (is_mirror()) return 2 * n_ + which;
  return n_ + which;
}

DiskRole Architecture::role_of(int disk) const {
  assert(disk >= 0 && disk < total_disks_);
  if (disk < n_) return DiskRole::kData;
  if (is_mirror()) return disk < 2 * n_ ? DiskRole::kMirror : DiskRole::kParity;
  return DiskRole::kParity;
}

int Architecture::role_index(int disk) const {
  switch (role_of(disk)) {
    case DiskRole::kData: return disk;
    case DiskRole::kMirror: return disk - n_;
    case DiskRole::kParity: return disk - (is_mirror() ? 2 * n_ : n_);
  }
  return -1;
}

Pos Architecture::replica_of(int data_disk_index, int row) const {
  assert(is_mirror());
  const Pos local = arrangement_->mirror_of(data_disk_index, row);
  return {mirror_disk(local.disk), local.row};
}

Pos Architecture::replicated_by(int mirror_disk_index, int row) const {
  assert(is_mirror());
  return arrangement_->data_of(mirror_disk_index, row);
}

}  // namespace sma::layout
