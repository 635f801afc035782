// Mirror-array element arrangements — the paper's core contribution.
//
// A MirrorArrangement is a bijection telling where the replica of data
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
// descriptor (layout/registry.hpp).
#pragma once

#include <memory>
#include <optional>
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

/// Inverse of affine_shift given c^{-1} mod n: cell (d, w) holds
/// a(w, c^{-1} (d - w)).
inline Pos affine_unshift(int n, int c_inverse, Pos cell) {
  const int j = (c_inverse * (cell.disk - cell.row)) % n;
  return {cell.row, j < 0 ? j + n : j};
}

/// The units of Z_n (multipliers coprime to n) in increasing order, at
/// most `count` of them. Every multiplier is 0 for n = 1, whose one-cell
/// grid any number of replica arrays shares.
std::vector<int> units_mod(int n, int count);

/// c^{-1} mod n for a unit c (0 for n = 1).
int inverse_mod(int c, int n);

class MirrorArrangement {
 public:
  virtual ~MirrorArrangement() = default;

  virtual std::string name() const = 0;
  virtual int n() const = 0;

  /// Mirror-array position of the replica of data element a(i, j).
  virtual Pos mirror_of(int data_disk, int data_row) const = 0;

  /// Inverse: which data element the mirror cell (disk, row) replicates.
  /// Default implementation searches via partner_of; subclasses override
  /// with closed forms where available. Only valid on bijective
  /// arrangements — for unvalidated maps use partner_of, which reports
  /// the malformed case instead of handing back a sentinel.
  virtual Pos data_of(int mirror_disk, int mirror_row) const;

  /// Inverse by exhaustive search, safe on malformed (non-bijective)
  /// maps: nullopt when no data element maps to the mirror cell.
  std::optional<Pos> partner_of(int mirror_disk, int mirror_row) const;

  /// True when mirror_of is a bijection on the n x n grid (sanity check
  /// used by tests and by IteratedArrangement construction).
  bool is_bijection() const;
};

using ArrangementPtr = std::unique_ptr<MirrorArrangement>;

/// Arrangement given by an explicit n x n table (mirror position per
/// data element); the table-backed reference for the iterated
/// transformation family and a base for experimenting with custom
/// layouts.
class TableArrangement final : public MirrorArrangement {
 public:
  /// table[i][j] = mirror position of a(i, j); must be a bijection.
  TableArrangement(std::string name, std::vector<std::vector<Pos>> table);

  std::string name() const override { return name_; }
  int n() const override { return static_cast<int>(table_.size()); }
  Pos mirror_of(int data_disk, int data_row) const override;
  Pos data_of(int mirror_disk, int mirror_row) const override;

 private:
  std::string name_;
  std::vector<std::vector<Pos>> table_;      // [disk][row] -> mirror pos
  std::vector<std::vector<Pos>> inverse_;    // [m.disk][m.row] -> data pos
};

/// Apply the paper's transformation function once: the arrangement that
/// maps each *column* of the previous arrangement onto a loop-shifted
/// *row* (Fig. 8's step). Formally, if the input arrangement places the
/// replica of a(i, j) at position q, the output places it at
/// shift(q) = (<q.disk + q.row>_n, q.disk).
ArrangementPtr apply_shift_transform(const MirrorArrangement& prev);

/// The arrangement after `iterations` applications of the transform to
/// the identity. iterations == 1 gives the shifted arrangement.
ArrangementPtr make_iterated(int n, int iterations);

/// Factory by registry spec ("traditional", "shifted", "lrc:groups=2",
/// "iterated:3", ...) — resolves through AlgorithmRegistry::global()
/// (see layout/registry.hpp for the descriptor API).
Result<ArrangementPtr> make_arrangement(const std::string& kind, int n);

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
std::string render_arrays(const MirrorArrangement& arr);

}  // namespace sma::layout
