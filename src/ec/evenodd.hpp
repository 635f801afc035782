// EVENODD (Blaum, Brady, Bruck, Menon 1995) — the classic horizontal
// RAID-6 code the paper compares against.
//
// The code is defined over a prime p: (p-1) rows by p data columns plus
// a row-parity column P and a diagonal-parity column Q. We support any
// data-column count k by *shortening*: internally the code runs at the
// smallest odd prime p >= k with the absent columns fixed at zero —
// exactly the "shorten" method ([22] in the paper) that makes RAID-6
// reconstruction reads slightly worse, which Fig. 7 notes.
//
// Equations: P_i is the XOR of row i; Q_l is the XOR of diagonal l
// (cells with row + column == l mod p) and the adjuster S, where S is
// the XOR of the unstored diagonal p-1. S is an auxiliary cell. The
// table adds the redundant identity S = XOR of every P and Q cell
// (true because p-1 is even): without it, peeling cannot start when
// two data columns are lost and both parity columns survive.
#pragma once

#include "ec/xor_code.hpp"

namespace sma::ec {

class EvenOddCodec final : public XorCode {
 public:
  explicit EvenOddCodec(int data_columns);

  std::string name() const override;

  /// The internal prime the shortened code runs at.
  int prime() const { return rows() + 1; }
};

}  // namespace sma::ec
