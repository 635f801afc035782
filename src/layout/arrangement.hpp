// Mirror-array element arrangements — the paper's core contribution.
//
// An Arrangement is a bijection telling where the replica of data
// element a(i, j) (data disk i, row j) lives inside the mirror disk
// array. The paper's shifted arrangement is
//
//     mirror_of(i, j) = ( <i + j> mod n , i )
//
// i.e. data-disk columns become mirror rows, each loop-shifted by its
// data-disk index (paper Section IV-A). The traditional mirror is the
// identity map. Iterating the paper's transformation function (Section
// VI-E, Fig. 8) yields a family of further arrangements. Every concrete
// arrangement, the paper's two included, is a layout-registry
// descriptor's map (layout/registry.hpp), tabulated once over the
// n x n grid together with its inverse.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace sma::layout {

/// A (disk, row) coordinate inside one stripe of a disk array.
struct Pos {
  int disk = 0;
  int row = 0;
  bool operator==(const Pos&) const = default;
};

/// The affine shifted map with multiplier c: data element a(i, j) goes
/// to mirror cell (<i + c*j>_n, i). For c coprime to n it keeps the
/// paper's properties P1-P3 (j -> i + c*j and i -> i + c*j are both
/// injective); c = 1 is the paper's shifted arrangement. Replica array
/// r of an R-replica shifted architecture uses the r-th unit mod n, so
/// a data disk and a disk of array r share exactly one element per
/// stripe, as do two disks of different replica arrays
/// (Architecture::mirror_named).
inline Pos affine_shift(int n, int c, Pos data) {
  return {(data.disk + c * data.row) % n, data.disk};
}

/// The units of Z_n (multipliers coprime to n) in increasing order, at
/// most `count` of them. Every multiplier is 0 for n = 1, whose one-cell
/// grid any number of replica arrays shares.
std::vector<int> units_mod(int n, int count);

/// One element arrangement: the n x n placement table of a bijection
/// and its inverse, so either lookup is one indexed load. from_map is
/// the only way to build one and proves the bijection, so every
/// Arrangement is one.
class Arrangement final {
 public:
  /// Tabulate `map`, the mirror cell of each data element a(i, j),
  /// calling it once per element (i outer, j inner).
  /// kInvalidArgument for n < 1; kFailedPrecondition when the map
  /// leaves the n x n grid or sends two elements to one cell.
  static Result<Arrangement> from_map(std::string name, int n,
                                      const std::function<Pos(Pos)>& map);

  const std::string& name() const { return name_; }
  int n() const { return n_; }

  /// Mirror-array position of the replica of data element a(i, j).
  Pos mirror_of(int data_disk, int data_row) const {
    return mirror_[cell(data_disk, data_row)];
  }
  /// Which data element the mirror cell (disk, row) replicates.
  Pos data_of(int mirror_disk, int mirror_row) const {
    return data_[cell(mirror_disk, mirror_row)];
  }

 private:
  Arrangement() = default;
  std::size_t cell(int disk, int row) const {
    return static_cast<std::size_t>(disk) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(row);
  }

  std::string name_;
  int n_ = 0;
  std::vector<Pos> mirror_;  // [i n + j] -> mirror cell of a(i, j)
  std::vector<Pos> data_;    // [d n + w] -> data element cell (d, w) holds
};

/// Apply the paper's transformation function once: the arrangement that
/// maps each *column* of the previous arrangement onto a loop-shifted
/// *row* (Fig. 8's step). Formally, if the input arrangement places the
/// replica of a(i, j) at position q, the output places it at
/// shift(q) = (<q.disk + q.row>_n, q.disk).
Arrangement apply_shift_transform(const Arrangement& prev);

/// The arrangement after `iterations` applications of the transform to
/// the identity. iterations == 1 gives the shifted arrangement.
Arrangement make_iterated(int n, int iterations);

/// Factory by registry spec ("traditional", "shifted", "lrc:groups=2",
/// "iterated:3", ...) — resolves through AlgorithmRegistry::global()
/// (see layout/registry.hpp for the descriptor API).
Result<Arrangement> make_arrangement(const std::string& kind, int n);

/// Closed form of the iterated transform. The transform acts linearly
/// on coordinates: T(i, j) = (i + j, i) mod n, i.e. the matrix
/// [[1,1],[1,0]], whose k-th power is [[F(k+1), F(k)], [F(k), F(k-1)]]
/// with F the Fibonacci sequence. Hence the k-th iterate maps a(i, j)
/// to mirror position (F(k+1) i + F(k) j, F(k) i + F(k-1) j) mod n.
///
/// This refines the paper's Section VI-E: "odd iterates satisfy P1 and
/// P2" is exact only when gcd(F(k), n) == 1 (e.g. k = 3 has F(3) = 2,
/// so even n breaks P1/P2); P3 holds iff gcd(F(k+1), n) == 1. For the
/// paper's n = 3 example both statements agree with its Fig. 8.
bool iterate_satisfies_p1p2(int n, int iterations);
bool iterate_satisfies_p3(int n, int iterations);

/// Render the data array and mirror array element labels side by side in
/// the style of the paper's Figs. 1 and 3 (labels 1..n*n, row-major in
/// the data array).
std::string render_arrays(const Arrangement& arr);

}  // namespace sma::layout
