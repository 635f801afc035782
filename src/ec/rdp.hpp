// RDP — Row-Diagonal Parity (Corbett et al., FAST'04), the second
// RAID-6 comparator referenced by the paper.
//
// Defined over a prime p: (p-1) rows by (p-1) data columns, a row-parity
// column P and a diagonal-parity column Q. The diagonals run over the
// data columns *and* P (P standing in for column p-1); diagonal p-1 is
// never stored. Shortening supports any data-column count k <= p-1 by
// fixing absent columns at zero.
//
// Equations: P_i is the XOR of row i; Q_l is the XOR of diagonal l
// (cells with row + column == l mod p) for l < p-1. Decoding two lost
// columns peels from the diagonal that misses one of them, the RDP
// paper's chain reconstruction.
#pragma once

#include "ec/xor_code.hpp"

namespace sma::ec {

class RdpCodec final : public XorCode {
 public:
  explicit RdpCodec(int data_columns);

  std::string name() const override;

  int prime() const { return rows() + 1; }
};

}  // namespace sma::ec
