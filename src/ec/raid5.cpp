#include "ec/raid5.hpp"

#include <cassert>

namespace sma::ec {

Raid5Codec::Raid5Codec(int data_columns, int rows)
    : XorCode({data_columns, 1, rows, 0, 1}) {
  assert(data_columns >= 1);
  assert(rows >= 1);
  add_row_parity();
}

std::string Raid5Codec::name() const {
  return "raid5(k=" + std::to_string(data_columns()) + ")";
}

}  // namespace sma::ec
