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
  auto spec = parse_layout_spec(layout);
  if (!spec.is_ok()) return spec.status();
  auto first = AlgorithmRegistry::global().make(spec.value(), n);
  if (!first.is_ok()) return first.status();
  std::vector<Arrangement> arrays;
  arrays.reserve(static_cast<std::size_t>(replicas));
  arrays.push_back(std::move(first).take());
  if (replicas >= 2) {
    const std::string& name = spec.value().name;
    if (name != "traditional" && name != "shifted")
      return invalid_argument("layout '" + layout +
                              "' has no multi-replica form; R >= 2 takes "
                              "only traditional and shifted");
    const std::vector<int> units = units_mod(n, replicas);
    if (name == "shifted" && static_cast<int>(units.size()) < replicas)
      return invalid_argument(
          "n = " + std::to_string(n) + " has only " +
          std::to_string(units.size()) + " units; cannot build " +
          std::to_string(replicas) + " orthogonal shifted replica arrays");
    for (int r = 2; r <= replicas; ++r) {
      if (name == "traditional") {
        arrays.push_back(arrays.front());
        continue;
      }
      const int c = units[static_cast<std::size_t>(r - 1)];
      auto made = Arrangement::from_map(
          arrays.front().name(), n,
          [n, c](Pos p) { return affine_shift(n, c, p); });
      arrays.push_back(std::move(made).take());
    }
  }
  Architecture a;
  a.kind_ = ArchKind::kMirror;
  a.n_ = n;
  a.rows_ = n;
  a.replicas_ = replicas;
  a.total_disks_ = (replicas + 1) * n;
  a.layout_spec_ = layout;
  a.arrays_ =
      std::make_shared<const std::vector<Arrangement>>(std::move(arrays));
  return a;
}

Result<Architecture> Architecture::mirror_with_parity_named(
    int n, const std::string& layout) {
  auto base = mirror_named(n, layout);
  if (!base.is_ok()) return base.status();
  Architecture a = std::move(base).take();
  // mirror_named resolved the spec, so its descriptor is registered.
  const LayoutDescriptor* desc =
      AlgorithmRegistry::global()
          .find(parse_layout_spec(layout).value().name)
          .value();
  if (!desc->supports_second_failure)
    return failed_precondition("layout '" + a.arrangement()->name() +
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

double Architecture::storage_efficiency() const {
  const double data_disks = n_;
  return data_disks / total_disks_;
}

std::string Architecture::name() const {
  switch (kind_) {
    case ArchKind::kMirror:
      return (replicas_ == 1 ? "mirror-"
                             : std::to_string(replicas_ + 1) + "-mirror-") +
             arrangement()->name();
    case ArchKind::kMirrorParity:
      return "mirror-parity-" + arrangement()->name();
    case ArchKind::kRaid5: return "raid5";
    case ArchKind::kRaid6: return "raid6-shortened";
  }
  return "unknown";
}

}  // namespace sma::layout
