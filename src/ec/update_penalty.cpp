#include "ec/update_penalty.hpp"

#include <algorithm>

namespace sma::ec {

Result<UpdatePenalty> measure_update_penalty(const Codec& codec,
                                             std::size_t element_bytes,
                                             std::uint64_t seed) {
  ColumnSet base = codec.make_stripe(element_bytes);
  base.fill_pattern(seed);
  SMA_RETURN_IF_ERROR(codec.encode(base));

  UpdatePenalty out;
  out.cells.assign(static_cast<std::size_t>(codec.data_columns()),
                   std::vector<std::vector<Cell>>(
                       static_cast<std::size_t>(codec.data_rows())));

  long total = 0;
  out.min = codec.total_columns() * codec.rows() + 1;
  out.max = 0;
  for (int i = 0; i < codec.data_columns(); ++i) {
    for (int j = 0; j < codec.data_rows(); ++j) {
      ColumnSet modified = base;
      auto elem = modified.element(i, j);
      for (auto& b : elem) b ^= 0xA5;  // any nonzero delta
      SMA_RETURN_IF_ERROR(codec.encode(modified));

      // List every changed cell other than the modified element
      // itself — parity may live in dedicated columns (horizontal
      // codes) or in the tail rows of data columns (vertical codes).
      auto& cells =
          out.cells[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      for (int c = 0; c < codec.total_columns(); ++c)
        for (int r = 0; r < codec.rows(); ++r) {
          if (c == i && r == j) continue;
          auto a = base.element(c, r);
          auto b = modified.element(c, r);
          if (!std::equal(a.begin(), a.end(), b.begin()))
            cells.push_back({c, r});
        }
      const int changed = static_cast<int>(cells.size());
      total += changed;
      out.min = std::min(out.min, changed);
      out.max = std::max(out.max, changed);
    }
  }
  out.average = static_cast<double>(total) /
                (static_cast<double>(codec.data_columns()) * codec.data_rows());
  return out;
}

}  // namespace sma::ec
