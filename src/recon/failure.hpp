// Failure scenarios: which logical disks of one stripe are gone, and
// the paper's classification of double failures for the mirror method
// with parity (Table I):
//
//   F1  the two failed disks include the parity disk
//   F2  the two failed disks are in the same disk array
//   F3  each disk array contains one failed disk
//
// With R >= 2 replica arrays the same rule applies per array: two disks
// of one array (data or replica r) are F2, disks of two arrays F3.
#pragma once

#include <string>
#include <vector>

#include "layout/architecture.hpp"

namespace sma::recon {

enum class FailureClass {
  kNone,          // nothing failed
  kSingle,        // exactly one disk failed
  kF1,            // double, includes the parity disk
  kF2,            // double, same disk array
  kF3,            // double, one per disk array
  kRaidDouble,    // double in a non-mirror architecture
};

std::string to_string(FailureClass c);

/// Classify a failed-disk set for `arch`. Sets of size > 2 are not
/// classified (the paper's architectures tolerate at most 2).
FailureClass classify(const layout::Architecture& arch,
                      const std::vector<int>& failed);

/// All single-disk failure scenarios (every disk once).
std::vector<std::vector<int>> enumerate_single_failures(
    const layout::Architecture& arch);

/// All unordered double-disk failure scenarios: C(total_disks, 2).
std::vector<std::vector<int>> enumerate_double_failures(
    const layout::Architecture& arch);

}  // namespace sma::recon
