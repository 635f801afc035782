// Golden pin over every placement the layout layer hands out: each
// built-in layout's table (both directions) and each replica array of
// the multi-replica mirrors. Any change to a single cell moves the
// digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "layout/architecture.hpp"

namespace sma::layout {
namespace {

TEST(LayoutGolden, PlacementTablesArePinned) {
  // Recorded from the per-descriptor closed forms (map, inverse and the
  // affine multipliers of the R >= 2 shifted arrays), so it pins the
  // placement tables to them cell for cell.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto fold = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
  auto fold_pos = [&fold](Pos p) {
    fold(static_cast<std::uint64_t>(p.disk));
    fold(static_cast<std::uint64_t>(p.row));
  };
  auto fold_name = [&fold](const std::string& s) {
    fold(s.size());
    for (const char c : s) fold(static_cast<unsigned char>(c));
  };

  std::vector<std::string> specs = {"traditional", "shifted", "zigzag"};
  for (int k = 0; k <= 6; ++k) specs.push_back("iterated:" + std::to_string(k));
  for (int g = 1; g <= 3; ++g) {
    specs.push_back("lrc:groups=" + std::to_string(g));
    specs.push_back("pyramid:groups=" + std::to_string(g));
  }

  int tables = 0;
  for (int n = 1; n <= 16; ++n) {
    for (const std::string& spec : specs) {
      auto made = make_arrangement(spec, n);
      fold(static_cast<std::uint64_t>(made.status().code()));
      if (!made.is_ok()) continue;
      ++tables;
      const Arrangement& arr = made.value();
      fold_name(arr.name());
      for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j) {
          fold_pos(arr.mirror_of(i, j));
          fold_pos(arr.data_of(i, j));
        }
    }
  }

  int architectures = 0;
  for (const char* spec : {"traditional", "shifted"}) {
    for (int replicas = 1; replicas <= 3; ++replicas) {
      for (int n = 1; n <= 16; ++n) {
        auto arch = Architecture::mirror_named(n, spec, replicas);
        fold(static_cast<std::uint64_t>(arch.status().code()));
        if (!arch.is_ok()) continue;
        ++architectures;
        const Architecture& a = arch.value();
        fold_name(a.name());
        for (int r = 1; r <= replicas; ++r)
          for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j) {
              fold_pos(a.replica_of(r, i, j));
              fold_pos(a.replicated_by(r, i, j));
            }
      }
    }
  }

  EXPECT_EQ(tables, 216);
  EXPECT_EQ(architectures, 91);
  EXPECT_EQ(h, 0x35f1750dfff4be13ull) << std::hex << h;
}

}  // namespace
}  // namespace sma::layout
