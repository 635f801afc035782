#include "ec/rdp.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "ec/prime.hpp"

namespace sma::ec {

RdpCodec::RdpCodec(int data_columns)
    : XorCode({data_columns, 2,
               next_prime_at_least(std::max(3, data_columns + 1)) - 1, 0, 2}) {
  assert(data_columns >= 1);
  const int k = data_columns;
  const int p = prime();
  add_row_parity();
  // Diagonal l < p-1 runs over the data columns and P, which stands in
  // for column p-1 (its cell on diagonal l is row l+1). The absent row
  // p-1 and the shortened columns k..p-2 contribute zero.
  for (int l = 0; l < p - 1; ++l) {
    std::vector<Cell> diagonal{{k + 1, l}};
    for (int j = 0; j < k; ++j)
      if (const int i = (l - j + p) % p; i < p - 1) diagonal.push_back({j, i});
    if (l + 1 < p - 1) diagonal.push_back({k, l + 1});
    add_equation(std::move(diagonal));
  }
}

std::string RdpCodec::name() const {
  return "rdp(k=" + std::to_string(data_columns()) +
         ",p=" + std::to_string(prime()) + ")";
}

}  // namespace sma::ec
