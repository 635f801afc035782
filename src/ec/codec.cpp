#include "ec/codec.hpp"

#include <algorithm>
#include <string>

namespace sma::ec {

Status Codec::check_stripe(const ColumnSet& stripe) const {
  if (stripe.columns() != total_columns())
    return invalid_argument(name() + ": stripe has " +
                            std::to_string(stripe.columns()) +
                            " columns, expected " +
                            std::to_string(total_columns()));
  if (stripe.rows() != rows())
    return invalid_argument(name() + ": stripe has " +
                            std::to_string(stripe.rows()) +
                            " rows, expected " + std::to_string(rows()));
  return Status::ok();
}

Status Codec::check_erasures(const std::vector<int>& erased) const {
  // A malformed set is malformed at any length: validate it before
  // comparing its size with the tolerance.
  for (std::size_t i = 0; i < erased.size(); ++i) {
    if (erased[i] < 0 || erased[i] >= total_columns())
      return invalid_argument(name() + ": erased column " +
                              std::to_string(erased[i]) + " out of range");
    for (std::size_t j = i + 1; j < erased.size(); ++j)
      if (erased[i] == erased[j])
        return invalid_argument(name() + ": duplicate erased column " +
                                std::to_string(erased[i]));
  }
  if (static_cast<int>(erased.size()) > fault_tolerance())
    return unrecoverable(name() + ": " + std::to_string(erased.size()) +
                         " erasures exceed fault tolerance " +
                         std::to_string(fault_tolerance()));
  return Status::ok();
}

Status Codec::self_test(std::uint64_t seed, std::size_t element_bytes) const {
  ColumnSet reference = make_stripe(element_bytes);
  reference.fill_pattern(seed);
  SMA_RETURN_IF_ERROR(encode(reference));

  // Enumerate every erasure pattern of size 1..min(fault_tolerance(), 3)
  // (cubic enumeration is plenty for the library's codecs; wider RS
  // configurations spot-check triples).
  std::vector<std::vector<int>> patterns;
  const int t = total_columns();
  for (int a = 0; a < t; ++a) {
    patterns.push_back({a});
    if (fault_tolerance() >= 2) {
      for (int b = a + 1; b < t; ++b) {
        patterns.push_back({a, b});
        if (fault_tolerance() >= 3)
          for (int c = b + 1; c < t; ++c) patterns.push_back({a, b, c});
      }
    }
  }

  for (const auto& pattern : patterns) {
    ColumnSet damaged = reference;
    for (const int col : pattern) damaged.zero_column(col);
    SMA_RETURN_IF_ERROR(decode(damaged, pattern));
    for (int col = 0; col < t; ++col) {
      if (!damaged.column_equals(col, reference, col)) {
        std::string which;
        for (const int p : pattern) which += std::to_string(p) + " ";
        return corruption(name() + ": column " + std::to_string(col) +
                          " mismatches after decoding erasures [" + which +
                          "]");
      }
    }
  }
  return Status::ok();
}

}  // namespace sma::ec
