// Checkers for the paper's three structural properties of a mirror
// arrangement (Section IV-B and VI-C):
//
//  P1  the replicas of the elements of one data disk land on all n
//      mirror disks, one per mirror disk;
//  P2  the elements of one mirror disk come from all n data disks, one
//      per data disk;
//  P3  the replicas of the elements of one data *row* land on n
//      distinct mirror disks.
//
// P1+P2 give the one-read-access reconstruction; P3 preserves optimal
// large-write efficiency. The iterated family (Fig. 8) satisfies P1/P2
// on odd iterates but P3 only on some of them, which bench_fig8 maps.
#pragma once

#include <string>

#include "layout/arrangement.hpp"
#include "util/status.hpp"

namespace sma::layout {

/// OK, or kFailedPrecondition naming the first violated disk.
Status check_property1(const Arrangement& arr);
Status check_property2(const Arrangement& arr);
Status check_property3(const Arrangement& arr);

/// Every Arrangement is a bijection (Arrangement::from_map proves it),
/// so the report covers P1..P3 alone.
struct PropertyReport {
  bool p1 = false;
  bool p2 = false;
  bool p3 = false;

  /// All of P1..P3 (the paper's requirements for an arrangement that is
  /// "equally powerful" to the shifted one).
  bool all() const { return p1 && p2 && p3; }
  /// "bijective P1 P2 P3" style, with "!" marking a violated property.
  std::string to_string() const;
};

PropertyReport evaluate_properties(const Arrangement& arr);

}  // namespace sma::layout
