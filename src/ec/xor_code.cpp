#include "ec/xor_code.hpp"

#include <algorithm>
#include <cassert>
#include <span>

#include "gf/region.hpp"

namespace sma::ec {

XorCode::XorCode(Shape shape)
    : shape_(shape),
      equations_of_(static_cast<std::size_t>(total_columns() + 1) *
                    static_cast<std::size_t>(shape.rows)) {
  assert(shape.data_columns >= 1 && shape.rows >= 1);
}

void XorCode::add_equation(std::vector<Cell> cells) {
  const std::size_t e = equations_.size();
  for (const Cell c : cells) {
    assert(c.col >= 0 && c.col <= total_columns());
    assert(c.row >= 0 && c.row < rows());
    if (c.col == total_columns()) aux_cells_ = std::max(aux_cells_, c.row + 1);
    equations_of_[id(c)].push_back(e);
  }
  equations_.push_back(std::move(cells));
}

void XorCode::add_row_parity() {
  for (int i = 0; i < rows(); ++i) {
    std::vector<Cell> row{{data_columns(), i}};
    for (int j = 0; j < data_columns(); ++j) row.push_back({j, i});
    add_equation(std::move(row));
  }
}

Status XorCode::encode(ColumnSet& stripe) const {
  SMA_RETURN_IF_ERROR(check_stripe(stripe));
  std::vector<char> unknown(equations_of_.size(), 1);
  for (int c = 0; c < data_columns(); ++c)
    for (int r = 0; r < data_rows(); ++r) unknown[id({c, r})] = 0;
  return peel(stripe, std::move(unknown));
}

Status XorCode::decode(ColumnSet& stripe,
                       const std::vector<int>& erased) const {
  SMA_RETURN_IF_ERROR(check_stripe(stripe));
  SMA_RETURN_IF_ERROR(check_erasures(erased));
  std::vector<char> unknown(equations_of_.size(), 0);
  for (const int c : erased)
    for (int r = 0; r < rows(); ++r) unknown[id({c, r})] = 1;
  for (int r = 0; r < rows(); ++r) unknown[id(aux(r))] = 1;
  return peel(stripe, std::move(unknown));
}

Status XorCode::peel(ColumnSet& stripe, std::vector<char> unknown) const {
  const std::size_t eb = stripe.element_bytes();
  const int columns = total_columns();
  std::vector<std::uint8_t> aux_values(static_cast<std::size_t>(aux_cells_) *
                                       eb);
  auto view = [&](Cell c) -> std::span<std::uint8_t> {
    if (c.col < columns) return stripe.element(c.col, c.row);
    return {aux_values.data() + static_cast<std::size_t>(c.row) * eb, eb};
  };
  // Only stripe cells must resolve; auxiliary cells are stepping stones.
  auto left = std::count(unknown.begin(), unknown.begin() + columns * rows(),
                         1);

  // pending[e]: unknown cells left in equation e. Each equation enters
  // `ready` once, when that count first reaches one.
  std::vector<int> pending(equations_.size(), 0);
  std::vector<std::size_t> ready;
  ready.reserve(equations_.size());
  for (std::size_t e = 0; e < equations_.size(); ++e) {
    for (const Cell c : equations_[e]) pending[e] += unknown[id(c)];
    if (pending[e] == 1) ready.push_back(e);
  }

  std::vector<std::span<const std::uint8_t>> srcs;
  for (std::size_t next = 0; left > 0 && next < ready.size(); ++next) {
    const std::size_t e = ready[next];
    if (pending[e] != 1) continue;  // its last unknown came from elsewhere
    Cell target{};
    srcs.clear();
    for (const Cell c : equations_[e]) {
      if (unknown[id(c)] != 0)
        target = c;
      else
        srcs.push_back(view(c));
    }
    const auto dst = view(target);
    gf::region_zero(dst);
    gf::region_multi_xor(srcs, dst);
    unknown[id(target)] = 0;
    if (target.col < columns) --left;
    for (const std::size_t f : equations_of_[id(target)])
      if (--pending[f] == 1) ready.push_back(f);
  }
  if (left > 0)
    return unrecoverable(name() + ": peeling stuck with " +
                         std::to_string(left) + " cells unresolved");
  return Status::ok();
}

}  // namespace sma::ec
