// RAID-5: n data columns + 1 XOR parity column, arbitrary row count.
//
// This is also the parity-disk component of the (shifted) mirror method
// with parity: c_j = XOR_i a(i, j) per the paper's Section V. One
// equation per row: the row's data cells XOR its parity cell is zero.
#pragma once

#include "ec/xor_code.hpp"

namespace sma::ec {

class Raid5Codec final : public XorCode {
 public:
  /// `data_columns` >= 1, `rows` >= 1 (the paper uses rows == n).
  Raid5Codec(int data_columns, int rows);

  std::string name() const override;
};

}  // namespace sma::ec
