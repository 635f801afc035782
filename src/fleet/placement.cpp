#include "fleet/placement.hpp"

#include <algorithm>
#include <string>

#include "util/rng.hpp"

namespace sma::fleet {

const char* to_string(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kRoundRobin:
      return "round_robin";
    case PlacementPolicy::kRandom:
      return "random";
    case PlacementPolicy::kDeclustered:
      return "declustered";
  }
  return "unknown";
}

Result<PlacementPolicy> placement_policy_from(std::string_view name) {
  if (name == "round_robin") return PlacementPolicy::kRoundRobin;
  if (name == "random") return PlacementPolicy::kRandom;
  if (name == "declustered") return PlacementPolicy::kDeclustered;
  return invalid_argument("unknown placement policy: " + std::string(name));
}

Result<Placement> build_placement(const PlacementConfig& cfg) {
  if (cfg.arrays <= 0 || cfg.volumes <= 0 || cfg.segments_per_volume <= 0)
    return invalid_argument(
        "placement needs positive arrays, volumes and segments_per_volume");
  if (cfg.policy == PlacementPolicy::kDeclustered &&
      (cfg.spread <= 0 || cfg.spread > cfg.arrays))
    return invalid_argument("declustered spread must lie in [1, arrays]");

  Placement p;
  p.cfg_ = cfg;
  const std::size_t volumes = static_cast<std::size_t>(cfg.volumes);
  const std::size_t segments =
      static_cast<std::size_t>(cfg.segments_per_volume);
  p.map_.resize(volumes * segments);
  Rng rng(cfg.seed);
  for (std::size_t v = 0; v < volumes; ++v) {
    for (std::size_t s = 0; s < segments; ++s) {
      int a = 0;
      switch (cfg.policy) {
        case PlacementPolicy::kRoundRobin:
          a = static_cast<int>(v) % cfg.arrays;
          break;
        case PlacementPolicy::kRandom:
          a = static_cast<int>(
              rng.next_below(static_cast<std::uint64_t>(cfg.arrays)));
          break;
        case PlacementPolicy::kDeclustered:
          // Rotated diagonal group: segment s of volume v sits on array
          // (v + s mod k) mod A, so the volume occupies the k
          // consecutive arrays starting at v mod A and its segments
          // round-robin within that group.
          a = static_cast<int>(
              (v + s % static_cast<std::size_t>(cfg.spread)) %
              static_cast<std::size_t>(cfg.arrays));
          break;
      }
      p.map_[v * segments + s] = a;
    }
  }

  p.volume_arrays_.resize(volumes);
  p.array_volumes_.resize(static_cast<std::size_t>(cfg.arrays));
  p.segment_count_.assign(static_cast<std::size_t>(cfg.arrays), 0);
  for (std::size_t v = 0; v < volumes; ++v) {
    std::vector<int>& va = p.volume_arrays_[v];
    for (std::size_t s = 0; s < segments; ++s) {
      const int a = p.map_[v * segments + s];
      ++p.segment_count_[static_cast<std::size_t>(a)];
      if (std::find(va.begin(), va.end(), a) == va.end()) va.push_back(a);
    }
    std::sort(va.begin(), va.end());
    for (const int a : va)
      p.array_volumes_[static_cast<std::size_t>(a)].push_back(
          static_cast<int>(v));
  }
  return p;
}

}  // namespace sma::fleet
