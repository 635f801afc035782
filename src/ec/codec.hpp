// Erasure-codec interface.
//
// A codec works on one stripe held in a ColumnSet whose columns are laid
// out as [data columns | parity columns]. Codecs know their own stripe
// shape (row count is usually a function of the code, not the caller).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ec/buffer.hpp"
#include "util/status.hpp"

namespace sma::ec {

/// One element of a stripe: column `col`, row `row`.
struct Cell {
  int col = 0;
  int row = 0;
  bool operator==(const Cell&) const = default;
};

class Codec {
 public:
  virtual ~Codec() = default;

  virtual std::string name() const = 0;
  virtual int data_columns() const = 0;
  virtual int parity_columns() const = 0;
  virtual int rows() const = 0;
  virtual int fault_tolerance() const = 0;

  /// Rows of a data column that actually carry data. Horizontal codes
  /// use every row (the default); vertical codes (X-code) reserve the
  /// trailing rows of every column for parity.
  virtual int data_rows() const { return rows(); }

  int total_columns() const { return data_columns() + parity_columns(); }

  /// Compute every parity column from the data columns. `stripe` must
  /// have total_columns() columns and rows() rows.
  virtual Status encode(ColumnSet& stripe) const = 0;

  /// Rebuild the columns listed in `erased` in place from the surviving
  /// columns. Fails with kUnrecoverable if the erasure pattern exceeds
  /// the code's tolerance; fails with kInvalidArgument on malformed
  /// input (duplicate/out-of-range indices, wrong stripe shape).
  virtual Status decode(ColumnSet& stripe,
                        const std::vector<int>& erased) const = 0;

  /// Shape-check helper shared by implementations.
  Status check_stripe(const ColumnSet& stripe) const;

  /// Validates `erased`: in range, no duplicates, within tolerance.
  Status check_erasures(const std::vector<int>& erased) const;

  /// Allocate a stripe of the right shape for this codec.
  ColumnSet make_stripe(std::size_t element_bytes) const {
    return ColumnSet(total_columns(), rows(), element_bytes);
  }

  /// encode() then verify round-trip decode of every erasure pattern up
  /// to the fault tolerance on a small random stripe; used by tests and
  /// the self-check examples.
  Status self_test(std::uint64_t seed, std::size_t element_bytes = 64) const;
};

using CodecPtr = std::unique_ptr<Codec>;

}  // namespace sma::ec
