// X-code (Xu & Bruck 1999) — a *vertical* RAID-6 code with optimal
// update complexity: every data element participates in exactly two
// parity cells, one per diagonal direction. Included as the
// counterpoint to EVENODD/RDP in the update-efficiency comparison
// (paper Section II: horizontal RAID-6 cannot be update-optimal;
// vertical codes can).
//
// Construction over a prime p: a p x p array on p disks (columns).
// Rows 0..p-3 hold data; rows p-2 and p-1 hold parity computed along
// diagonals of slope 1 and slope -1 respectively:
//
//   c(p-2, i) = XOR_{k=0}^{p-3} c(k, <i + k + 2>_p)
//   c(p-1, i) = XOR_{k=0}^{p-3} c(k, <i - k - 2>_p)
//
// These 2p equations are the whole table. Any two column (disk)
// erasures are decodable; peeling them resolves the two diagonal
// families from their boundary cells inward (the classic X-code
// zigzag).
//
// Note the Codec-interface mapping for a vertical code: all p columns
// are "data columns" (each also carries two parity cells in its tail
// rows), parity_columns() is 0, and data_rows() = p - 2 < rows() = p.
#pragma once

#include "ec/xor_code.hpp"

namespace sma::ec {

class XCodec final : public XorCode {
 public:
  /// `columns` must be a prime >= 3 (no shortening support: X-code's
  /// vertical structure does not shorten gracefully, which is itself
  /// one of its published limitations).
  explicit XCodec(int columns);

  std::string name() const override;

  int prime() const { return rows(); }
};

}  // namespace sma::ec
