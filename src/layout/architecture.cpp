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
                                                const std::string& layout,
                                                int replicas) {
  if (n < 1) return invalid_argument("mirror architecture needs n >= 1");
  if (replicas < 1)
    return invalid_argument(
        "mirror architecture needs at least one replica array");
  auto arr = AlgorithmRegistry::global().make(layout, n);
  if (!arr.is_ok()) return arr.status();
  Architecture a;
  a.kind_ = ArchKind::kMirror;
  a.n_ = n;
  a.rows_ = n;
  a.replicas_ = replicas;
  a.total_disks_ = (replicas + 1) * n;
  a.layout_spec_ = layout;
  a.arrangement_ = std::move(arr).take();
  if (replicas >= 2) {
    const std::string& name = a.arrangement_->descriptor().name;
    if (name != "traditional" && name != "shifted")
      return invalid_argument("layout '" + layout +
                              "' has no multi-replica form; R >= 2 takes "
                              "only traditional and shifted");
    if (name == "shifted") {
      a.multipliers_ = units_mod(n, replicas);
      if (static_cast<int>(a.multipliers_.size()) < replicas)
        return invalid_argument(
            "n = " + std::to_string(n) + " has only " +
            std::to_string(a.multipliers_.size()) + " units; cannot build " +
            std::to_string(replicas) + " orthogonal shifted replica arrays");
      for (const int c : a.multipliers_)
        a.inverses_.push_back(inverse_mod(c, n));
    }
  }
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
  switch (kind_) {
    case ArchKind::kMirror: return replicas_;
    case ArchKind::kMirrorParity:
    case ArchKind::kRaid6: return 2;
    case ArchKind::kRaid5: return 1;
  }
  return 1;
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
      return (replicas_ == 1 ? "mirror-"
                             : std::to_string(replicas_ + 1) + "-mirror-") +
             arrangement_->name();
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

int Architecture::replica_disk(int array_r, int local) const {
  assert(is_mirror());
  assert(array_r >= 1 && array_r <= replicas_);
  assert(local >= 0 && local < n_);
  return array_r * n_ + local;
}

int Architecture::parity_disk(int which) const {
  assert(has_parity());
  assert(which >= 0 && which < parity_disks());
  return (is_mirror() ? (replicas_ + 1) * n_ : n_) + which;
}

DiskRole Architecture::role_of(int disk) const {
  assert(disk >= 0 && disk < total_disks_);
  if (disk < n_) return DiskRole::kData;
  if (is_mirror() && disk < (replicas_ + 1) * n_) return DiskRole::kMirror;
  return DiskRole::kParity;
}

int Architecture::role_index(int disk) const {
  switch (role_of(disk)) {
    case DiskRole::kData: return disk;
    case DiskRole::kMirror: return disk % n_;
    case DiskRole::kParity:
      return disk - (is_mirror() ? (replicas_ + 1) * n_ : n_);
  }
  return -1;
}

int Architecture::array_of(int disk) const {
  switch (role_of(disk)) {
    case DiskRole::kData: return 0;
    case DiskRole::kMirror: return disk / n_;
    case DiskRole::kParity: return -1;
  }
  return -1;
}

Pos Architecture::replica_of(int array_r, int data_disk_index, int row) const {
  assert(is_mirror());
  assert(array_r >= 1 && array_r <= replicas_);
  const Pos local =
      multipliers_.empty()
          ? arrangement_->mirror_of(data_disk_index, row)
          : affine_shift(n_,
                         multipliers_[static_cast<std::size_t>(array_r - 1)],
                         {data_disk_index, row});
  return {array_r * n_ + local.disk, local.row};
}

Pos Architecture::replicated_by(int array_r, int local, int row) const {
  assert(is_mirror());
  assert(array_r >= 1 && array_r <= replicas_);
  if (multipliers_.empty()) return arrangement_->data_of(local, row);
  return affine_unshift(n_, inverses_[static_cast<std::size_t>(array_r - 1)],
                        {local, row});
}

}  // namespace sma::layout
