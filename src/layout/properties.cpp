#include "layout/properties.hpp"

#include <vector>

namespace sma::layout {

Status check_property1(const Arrangement& arr) {
  const int n = arr.n();
  for (int data_disk = 0; data_disk < n; ++data_disk) {
    std::vector<bool> hit(static_cast<std::size_t>(n), false);
    for (int row = 0; row < n; ++row) {
      const Pos p = arr.mirror_of(data_disk, row);
      if (hit[static_cast<std::size_t>(p.disk)])
        return failed_precondition(
            "P1 violated: data disk " + std::to_string(data_disk) +
            " has two replicas on mirror disk " + std::to_string(p.disk));
      hit[static_cast<std::size_t>(p.disk)] = true;
    }
  }
  return Status::ok();
}

Status check_property2(const Arrangement& arr) {
  const int n = arr.n();
  for (int mirror_disk = 0; mirror_disk < n; ++mirror_disk) {
    std::vector<bool> hit(static_cast<std::size_t>(n), false);
    for (int row = 0; row < n; ++row) {
      const Pos src = arr.data_of(mirror_disk, row);
      if (hit[static_cast<std::size_t>(src.disk)])
        return failed_precondition(
            "P2 violated: mirror disk " + std::to_string(mirror_disk) +
            " holds two elements of data disk " + std::to_string(src.disk));
      hit[static_cast<std::size_t>(src.disk)] = true;
    }
  }
  return Status::ok();
}

Status check_property3(const Arrangement& arr) {
  const int n = arr.n();
  for (int row = 0; row < n; ++row) {
    std::vector<bool> hit(static_cast<std::size_t>(n), false);
    for (int data_disk = 0; data_disk < n; ++data_disk) {
      const Pos p = arr.mirror_of(data_disk, row);
      if (hit[static_cast<std::size_t>(p.disk)])
        return failed_precondition(
            "P3 violated: data row " + std::to_string(row) +
            " has two replicas on mirror disk " + std::to_string(p.disk));
      hit[static_cast<std::size_t>(p.disk)] = true;
    }
  }
  return Status::ok();
}

PropertyReport evaluate_properties(const Arrangement& arr) {
  PropertyReport report;
  report.p1 = check_property1(arr).is_ok();
  report.p2 = check_property2(arr).is_ok();
  report.p3 = check_property3(arr).is_ok();
  return report;
}

std::string PropertyReport::to_string() const {
  std::string s = "bijective ";
  s += p1 ? "P1 " : "!P1 ";
  s += p2 ? "P2 " : "!P2 ";
  s += p3 ? "P3" : "!P3";
  return s;
}

}  // namespace sma::layout
