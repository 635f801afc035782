#include "recon/failure.hpp"

#include <cassert>

namespace sma::recon {

std::string to_string(FailureClass c) {
  switch (c) {
    case FailureClass::kNone: return "none";
    case FailureClass::kSingle: return "single";
    case FailureClass::kF1: return "F1(parity+array)";
    case FailureClass::kF2: return "F2(same array)";
    case FailureClass::kF3: return "F3(one per array)";
    case FailureClass::kRaidDouble: return "raid-double";
  }
  return "?";
}

FailureClass classify(const layout::Architecture& arch,
                      const std::vector<int>& failed) {
  if (failed.empty()) return FailureClass::kNone;
  if (failed.size() == 1) return FailureClass::kSingle;
  assert(failed.size() == 2);
  if (!arch.is_mirror()) return FailureClass::kRaidDouble;

  const int array_a = arch.array_of(failed[0]);
  const int array_b = arch.array_of(failed[1]);
  if (array_a < 0 || array_b < 0) return FailureClass::kF1;
  if (array_a == array_b) return FailureClass::kF2;
  return FailureClass::kF3;
}

std::vector<std::vector<int>> enumerate_single_failures(
    const layout::Architecture& arch) {
  std::vector<std::vector<int>> out;
  out.reserve(static_cast<std::size_t>(arch.total_disks()));
  for (int d = 0; d < arch.total_disks(); ++d) out.push_back({d});
  return out;
}

std::vector<std::vector<int>> enumerate_double_failures(
    const layout::Architecture& arch) {
  std::vector<std::vector<int>> out;
  const int t = arch.total_disks();
  out.reserve(static_cast<std::size_t>(t) * (t - 1) / 2);
  for (int a = 0; a < t; ++a)
    for (int b = a + 1; b < t; ++b) out.push_back({a, b});
  return out;
}

}  // namespace sma::recon
