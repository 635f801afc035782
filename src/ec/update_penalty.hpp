// Small-write update penalty of an erasure code.
//
// The paper's background section (citing Blaum-Roth and Blaum-Bruck-
// Vardy, its [19, 20]) argues that horizontal RAID-6 codes cannot
// achieve the theoretically optimal updating efficiency: changing one
// data element can force updates to more than two parity elements
// (EVENODD is the extreme case — an element on the "S diagonal"
// touches every Q element). The mirror methods update exactly
// 1 replica (+1 parity element with the parity disk), which is the
// optimum for their fault tolerance.
//
// This module measures the penalty for ANY codec, black-box: flip one
// data element, re-encode, and list the changed parity elements. The
// same lists are the update map of the RAID-5/6 write path
// (workload::run_write_workload), so the penalty table and the timed
// RAID writes come from one derivation.
#pragma once

#include "ec/codec.hpp"

namespace sma::ec {

struct UpdatePenalty {
  /// cells[i][j] = the parity elements that change when data element
  /// (column i, row j) changes, column by column and row by row within
  /// a column. Its size is that element's update count.
  std::vector<std::vector<std::vector<Cell>>> cells;
  double average = 0.0;
  int min = 0;
  int max = 0;
};

/// Measure the per-element parity updates of `codec` by differential
/// re-encoding. Deterministic; cost is one encode per data element.
Result<UpdatePenalty> measure_update_penalty(const Codec& codec,
                                             std::size_t element_bytes = 16,
                                             std::uint64_t seed = 1);

/// The theoretical optimum for an MDS-style code of the given fault
/// tolerance: every data change must touch one parity element per
/// tolerated failure beyond the first copy.
constexpr int optimal_parity_updates(int fault_tolerance) {
  return fault_tolerance;
}

}  // namespace sma::ec
