// Counting and enumerating "equally powerful" arrangements — making
// the paper's Section VI-E ("The arrangement in this paper is not the
// only approach ... other arrangements that satisfy the three
// properties could also be used") quantitative.
//
// Structure theorem (verified exhaustively by tests for small n): write
// an arrangement as d(i, j) = mirror disk of a(i, j) plus a row
// assignment within each mirror disk. Then
//
//   * P1 says every row of d (fixed i) is a permutation of the disks;
//   * P3 says every column of d (fixed j) is a permutation;
//     so  P1 ∧ P3  ⇔  d is a LATIN SQUARE;
//   * P2 is IMPLIED by P1 whenever the arrangement is a bijection
//     (each data disk sends exactly one element to each mirror disk,
//     so each mirror disk holds one element per data disk);
//   * the row assignment is free: any per-mirror-disk bijection of the
//     n incoming elements onto the n rows works.
//
// Hence the number of arrangements with all three properties is
// exactly  L(n) · (n!)^n,  L(n) = number of n x n Latin squares.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "layout/arrangement.hpp"

namespace sma::layout {

/// Number of n x n Latin squares (entries 0..n-1, no symmetry
/// reduction), by backtracking. Practical for n <= 5 (L(5) = 161280).
std::uint64_t count_latin_squares(int n);

/// Closed-form count of bijective arrangements satisfying P1 ∧ P2 ∧ P3:
/// L(n) · (n!)^n.
std::uint64_t count_valid_arrangements(int n);

/// Visit every disk-assignment Latin square d (as row-major vectors
/// d[i*n+j] = mirror disk of a(i,j)). Stops early if the visitor
/// returns false.
void for_each_latin_square(
    int n, const std::function<bool(const std::vector<int>&)>& visit);

/// Build a concrete valid arrangement from a Latin square plus a row
/// assignment choice: rows are assigned in first-come order per mirror
/// disk (a canonical representative of the (n!)^n family).
Arrangement arrangement_from_latin_square(const std::vector<int>& square,
                                          int n);

/// Brute-force census over ALL bijective arrangements of the n x n
/// grid (n <= 3 — (n*n)! grows fast). Returns counts of bijections
/// satisfying each property combination; used to verify the structure
/// theorem exhaustively.
struct ArrangementCensus {
  std::uint64_t total = 0;          // all bijections
  std::uint64_t p1 = 0;             // satisfying P1
  std::uint64_t p1_and_not_p2 = 0;  // must be 0 (P1 implies P2)
  std::uint64_t p1_p3 = 0;          // satisfying P1 and P3 (== all three)
};
ArrangementCensus census_all_arrangements(int n);

}  // namespace sma::layout
