#include "ec/xcode.hpp"

#include <cassert>
#include <vector>

#include "ec/prime.hpp"

namespace sma::ec {

XCodec::XCodec(int columns) : XorCode({columns, 0, columns, 2, 2}) {
  assert(is_prime(columns) && columns >= 3 &&
         "X-code requires a prime column count >= 3");
  const int p = columns;
  for (const int slope : {1, -1}) {
    for (int i = 0; i < p; ++i) {
      std::vector<Cell> diagonal{{i, slope == 1 ? p - 2 : p - 1}};
      for (int k = 0; k <= p - 3; ++k)
        diagonal.push_back({((i + slope * (k + 2)) % p + p) % p, k});
      add_equation(std::move(diagonal));
    }
  }
}

std::string XCodec::name() const {
  return "x-code(p=" + std::to_string(prime()) + ")";
}

}  // namespace sma::ec
