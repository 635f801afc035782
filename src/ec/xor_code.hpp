// XorCode — an XOR array code given as its table of parity equations.
//
// Each equation says "the XOR of these cells is zero". A cell is a
// stripe element (column, row) or an auxiliary value the code never
// stores (EVENODD's adjuster S), addressed as a row of the virtual
// column total_columns(). Encode and decode are one in-place peel: the
// unknown cells are the parity cells (column >= data_columns() or row
// >= data_rows()) when encoding, the erased columns' cells when
// decoding, and the auxiliary cells always. While some equation has
// exactly one unknown cell, that cell is written as one fused
// region_multi_xor of the equation's other cells. An erasure pattern
// the peel cannot finish is kUnrecoverable.
//
// RAID-5, EVENODD, RDP and X-code are XorCodes that only build their
// tables; see "On Codes for Optimal Rebuilding Access" for array codes
// defined the same way.
#pragma once

#include <string>
#include <vector>

#include "ec/codec.hpp"

namespace sma::ec {

class XorCode : public Codec {
 public:
  int data_columns() const override { return shape_.data_columns; }
  int parity_columns() const override { return shape_.parity_columns; }
  int rows() const override { return shape_.rows; }
  int data_rows() const override {
    return shape_.rows - shape_.parity_rows;
  }
  int fault_tolerance() const override { return shape_.fault_tolerance; }

  Status encode(ColumnSet& stripe) const final;
  Status decode(ColumnSet& stripe, const std::vector<int>& erased) const final;

 protected:
  struct Shape {
    int data_columns;
    int parity_columns;
    int rows;
    int parity_rows;  // trailing rows of every column that hold parity
    int fault_tolerance;
  };
  struct Cell {
    int col;
    int row;
  };

  explicit XorCode(Shape shape);

  /// Auxiliary cell `i`: an unstored value the equations may name.
  Cell aux(int i) const { return {total_columns(), i}; }

  /// Append the equation "the XOR of `cells` is zero".
  void add_equation(std::vector<Cell> cells);
  /// Append one equation per row: column data_columns() (the row
  /// parity P) is the XOR of the row's data cells.
  void add_row_parity();

 private:
  std::size_t id(Cell c) const {
    return static_cast<std::size_t>(c.col * shape_.rows + c.row);
  }
  /// Solve the cells flagged in `unknown` (by id) in place.
  Status peel(ColumnSet& stripe, std::vector<char> unknown) const;

  Shape shape_;
  int aux_cells_ = 0;
  std::vector<std::vector<Cell>> equations_;
  std::vector<std::vector<std::size_t>> equations_of_;  // by cell id
};

}  // namespace sma::ec
