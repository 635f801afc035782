#include "layout/enumeration.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "layout/properties.hpp"

namespace sma::layout {

namespace {

/// Backtracking Latin-square filler: cell-by-cell, row-major.
void fill_latin(int n, std::vector<int>& square, std::size_t cell,
                std::vector<std::uint32_t>& row_used,
                std::vector<std::uint32_t>& col_used,
                const std::function<bool(const std::vector<int>&)>& visit,
                bool& keep_going) {
  if (!keep_going) return;
  if (cell == square.size()) {
    keep_going = visit(square);
    return;
  }
  const int r = static_cast<int>(cell) / n;
  const int c = static_cast<int>(cell) % n;
  for (int v = 0; v < n && keep_going; ++v) {
    const std::uint32_t bit = 1u << v;
    if ((row_used[static_cast<std::size_t>(r)] & bit) ||
        (col_used[static_cast<std::size_t>(c)] & bit))
      continue;
    square[cell] = v;
    row_used[static_cast<std::size_t>(r)] |= bit;
    col_used[static_cast<std::size_t>(c)] |= bit;
    fill_latin(n, square, cell + 1, row_used, col_used, visit, keep_going);
    row_used[static_cast<std::size_t>(r)] &= ~bit;
    col_used[static_cast<std::size_t>(c)] &= ~bit;
  }
}

std::uint64_t factorial(int n) {
  std::uint64_t f = 1;
  for (int i = 2; i <= n; ++i) f *= static_cast<std::uint64_t>(i);
  return f;
}

std::uint64_t ipow(std::uint64_t base, int exp) {
  std::uint64_t out = 1;
  for (int i = 0; i < exp; ++i) out *= base;
  return out;
}

}  // namespace

void for_each_latin_square(
    int n, const std::function<bool(const std::vector<int>&)>& visit) {
  assert(n >= 1);
  std::vector<int> square(static_cast<std::size_t>(n) * n, -1);
  std::vector<std::uint32_t> row_used(static_cast<std::size_t>(n), 0);
  std::vector<std::uint32_t> col_used(static_cast<std::size_t>(n), 0);
  bool keep_going = true;
  fill_latin(n, square, 0, row_used, col_used, visit, keep_going);
}

std::uint64_t count_latin_squares(int n) {
  std::uint64_t count = 0;
  for_each_latin_square(n, [&](const std::vector<int>&) {
    ++count;
    return true;
  });
  return count;
}

std::uint64_t count_valid_arrangements(int n) {
  return count_latin_squares(n) * ipow(factorial(n), n);
}

Arrangement arrangement_from_latin_square(const std::vector<int>& square,
                                          int n) {
  assert(static_cast<int>(square.size()) == n * n);
  // Scan data elements column-major (disk i, then row j) and give each
  // element the next free row on its target mirror disk.
  std::vector<Pos> cells;
  cells.reserve(square.size());
  std::vector<int> next_row(static_cast<std::size_t>(n), 0);
  for (const int disk : square) {
    assert(disk >= 0 && disk < n);
    cells.push_back({disk, next_row[static_cast<std::size_t>(disk)]++});
  }
  auto made = Arrangement::from_map("latin-derived", n, [&](Pos p) {
    return cells[static_cast<std::size_t>(p.disk) * n + p.row];
  });
  return std::move(made).take();
}

ArrangementCensus census_all_arrangements(int n) {
  assert(n >= 1 && n <= 3 && "census is factorial in n*n");
  ArrangementCensus census;

  // A bijective arrangement is a permutation of the n*n cells.
  const int cells = n * n;
  std::vector<int> perm(static_cast<std::size_t>(cells));
  std::iota(perm.begin(), perm.end(), 0);
  do {
    ++census.total;
    auto made = Arrangement::from_map("census", n, [&](Pos p) {
      const int target = perm[static_cast<std::size_t>(p.disk) * n + p.row];
      return Pos{target / n, target % n};
    });
    const Arrangement& arr = made.value();
    const bool p1 = check_property1(arr).is_ok();
    if (!p1) continue;
    ++census.p1;
    if (!check_property2(arr).is_ok()) ++census.p1_and_not_p2;
    if (check_property3(arr).is_ok()) ++census.p1_p3;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return census;
}

}  // namespace sma::layout
