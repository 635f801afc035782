// Cauchy Reed-Solomon over GF(2^8): k data columns + m parity columns,
// tolerating any m erasures.
//
// Not used by the paper's headline experiments but part of the
// Jerasure-equivalent substrate, and the natural comparator for the
// paper's future-work direction (three-mirror and beyond). The
// generator is [I; C] with C an m x k Cauchy matrix, so every k x k
// submatrix is invertible (MDS).
#pragma once

#include "ec/codec.hpp"
#include "ec/matrix.hpp"

namespace sma::ec {

class CauchyRsCodec final : public Codec {
 public:
  /// Requires k >= 1, m >= 1, k + m <= 256 (field size), rows >= 1.
  CauchyRsCodec(int data_columns, int parity_count, int rows);

  std::string name() const override;
  int data_columns() const override { return k_; }
  int parity_columns() const override { return m_; }
  int rows() const override { return rows_; }
  int fault_tolerance() const override { return m_; }

  Status encode(ColumnSet& stripe) const override;
  Status decode(ColumnSet& stripe,
                const std::vector<int>& erased) const override;

  const GfMatrix& cauchy() const { return cauchy_; }

 private:
  int k_;
  int m_;
  int rows_;
  GfMatrix cauchy_;  // m_ x k_
};

}  // namespace sma::ec
