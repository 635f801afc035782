#include "ec/evenodd.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "ec/prime.hpp"

namespace sma::ec {

EvenOddCodec::EvenOddCodec(int data_columns)
    : XorCode({data_columns, 2,
               next_prime_at_least(std::max(3, data_columns)) - 1, 0, 2}) {
  assert(data_columns >= 1);
  const int k = data_columns;
  const int p = prime();
  const Cell s = aux(0);
  add_row_parity();
  // Diagonal l < p-1: Q_l ^ S ^ D_l == 0; diagonal p-1: S ^ D_{p-1} == 0.
  // The absent row p-1 and the shortened columns contribute zero.
  for (int l = 0; l < p; ++l) {
    std::vector<Cell> diagonal{s};
    if (l < p - 1) diagonal.push_back({k + 1, l});
    for (int j = 0; j < k; ++j)
      if (const int i = (l - j + p) % p; i < p - 1) diagonal.push_back({j, i});
    add_equation(std::move(diagonal));
  }
  std::vector<Cell> identity{s};
  for (int i = 0; i < p - 1; ++i) {
    identity.push_back({k, i});
    identity.push_back({k + 1, i});
  }
  add_equation(std::move(identity));
}

std::string EvenOddCodec::name() const {
  return "evenodd(k=" + std::to_string(data_columns()) +
         ",p=" + std::to_string(prime()) + ")";
}

}  // namespace sma::ec
