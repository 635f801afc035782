#include "ec/rs.hpp"

#include <algorithm>
#include <cassert>

#include "gf/region.hpp"

namespace sma::ec {

CauchyRsCodec::CauchyRsCodec(int data_columns, int parity_count, int rows)
    : k_(data_columns),
      m_(parity_count),
      rows_(rows),
      cauchy_(make_cauchy(parity_count, data_columns)) {
  assert(data_columns >= 1);
  assert(parity_count >= 1);
  assert(data_columns + parity_count <= 256);
  assert(rows >= 1);
}

std::string CauchyRsCodec::name() const {
  return "cauchy-rs(k=" + std::to_string(k_) + ",m=" + std::to_string(m_) +
         ")";
}

Status CauchyRsCodec::encode(ColumnSet& stripe) const {
  SMA_RETURN_IF_ERROR(check_stripe(stripe));
  // One fused dot product per parity column: each parity buffer is
  // traversed once, not once per data column.
  std::vector<std::span<const std::uint8_t>> data(static_cast<std::size_t>(k_));
  for (int j = 0; j < k_; ++j)
    data[static_cast<std::size_t>(j)] = stripe.column(j);
  std::vector<std::uint8_t> coeffs(static_cast<std::size_t>(k_));
  for (int i = 0; i < m_; ++i) {
    for (int j = 0; j < k_; ++j)
      coeffs[static_cast<std::size_t>(j)] = cauchy_.at(i, j);
    gf::encode_dot(coeffs, data, stripe.column(k_ + i));
  }
  return Status::ok();
}

Status CauchyRsCodec::decode(ColumnSet& stripe,
                             const std::vector<int>& erased) const {
  SMA_RETURN_IF_ERROR(check_stripe(stripe));
  SMA_RETURN_IF_ERROR(check_erasures(erased));
  if (erased.empty()) return Status::ok();

  std::vector<bool> lost(static_cast<std::size_t>(total_columns()), false);
  for (const int col : erased) lost[static_cast<std::size_t>(col)] = true;

  bool data_lost = false;
  for (int j = 0; j < k_; ++j)
    if (lost[static_cast<std::size_t>(j)]) data_lost = true;

  if (data_lost) {
    // Rows of the generator [I; C] corresponding to the first k intact
    // columns form an invertible k x k system over the data.
    std::vector<int> survivors;
    for (int col = 0;
         col < total_columns() && static_cast<int>(survivors.size()) < k_;
         ++col)
      if (!lost[static_cast<std::size_t>(col)]) survivors.push_back(col);
    if (static_cast<int>(survivors.size()) < k_)
      return unrecoverable(name() + ": fewer than k surviving columns");

    GfMatrix system(k_, k_);
    for (int r = 0; r < k_; ++r) {
      const int col = survivors[static_cast<std::size_t>(r)];
      for (int c = 0; c < k_; ++c) {
        if (col < k_) system.set(r, c, col == c ? 1 : 0);
        else system.set(r, c, cauchy_.at(col - k_, c));
      }
    }
    auto inverted = system.inverted();
    if (!inverted.is_ok()) return inverted.status();
    const GfMatrix& inv = inverted.value();

    // data_j = sum_t inv[j][t] * survivor_column_t; stage into scratch
    // because survivors may include data columns we are reading from.
    const std::size_t col_bytes = stripe.column_bytes();
    std::vector<std::uint8_t> scratch(static_cast<std::size_t>(k_) * col_bytes);
    std::vector<std::span<const std::uint8_t>> surv_cols(
        static_cast<std::size_t>(k_));
    for (int t = 0; t < k_; ++t)
      surv_cols[static_cast<std::size_t>(t)] =
          stripe.column(survivors[static_cast<std::size_t>(t)]);
    std::vector<std::uint8_t> coeffs(static_cast<std::size_t>(k_));
    for (int j = 0; j < k_; ++j) {
      std::span<std::uint8_t> out(
          scratch.data() + static_cast<std::size_t>(j) * col_bytes, col_bytes);
      for (int t = 0; t < k_; ++t)
        coeffs[static_cast<std::size_t>(t)] = inv.at(j, t);
      gf::encode_dot(coeffs, surv_cols, out);
    }
    for (int j = 0; j < k_; ++j) {
      auto dst = stripe.column(j);
      std::copy_n(scratch.data() + static_cast<std::size_t>(j) * col_bytes,
                  col_bytes, dst.begin());
    }
  }

  // With all data present, recompute any lost parity columns.
  std::vector<std::span<const std::uint8_t>> data(static_cast<std::size_t>(k_));
  for (int j = 0; j < k_; ++j)
    data[static_cast<std::size_t>(j)] = stripe.column(j);
  std::vector<std::uint8_t> coeffs(static_cast<std::size_t>(k_));
  for (int i = 0; i < m_; ++i) {
    if (!lost[static_cast<std::size_t>(k_ + i)]) continue;
    for (int j = 0; j < k_; ++j)
      coeffs[static_cast<std::size_t>(j)] = cauchy_.at(i, j);
    gf::encode_dot(coeffs, data, stripe.column(k_ + i));
  }
  return Status::ok();
}

}  // namespace sma::ec
