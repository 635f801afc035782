// Golden pin over the XOR array codes: every encode byte, decode byte
// and decode status of RAID-5, EVENODD, RDP and X-code over a grid of
// shapes, element sizes and erasure sets. Any change to a single output
// byte or status code moves the digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ec/evenodd.hpp"
#include "ec/raid5.hpp"
#include "ec/rdp.hpp"
#include "ec/xcode.hpp"

namespace sma::ec {
namespace {

// Every erasure set within `tolerance` over `columns` columns (the empty
// set first), then one set past the tolerance, one repeating a column
// and one naming a column past the stripe.
std::vector<std::vector<int>> erasure_sets(int columns, int tolerance) {
  std::vector<std::vector<int>> sets = {{}};
  for (int a = 0; a < columns; ++a) {
    sets.push_back({a});
    if (tolerance >= 2)
      for (int b = a + 1; b < columns; ++b) sets.push_back({a, b});
  }
  std::vector<int> over;
  for (int c = 0; c <= tolerance && c < columns; ++c) over.push_back(c);
  sets.push_back(over);
  sets.push_back({0, 0});
  sets.push_back({columns});
  return sets;
}

TEST(EcGolden, XorCodesEncodeAndDecodeArePinned) {
  // Recorded from the hand-written per-code encoders and decoders (and
  // the relation-peeling solver behind EVENODD, RDP and X-code), then
  // re-recorded once when a malformed set past the tolerance became
  // kInvalidArgument: RAID-5's {0, 0} (39 codes x 3 element sizes = 117
  // statuses) had been kUnrecoverable; no byte moved.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto fold = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
  auto fold_bytes = [&fold](const ColumnSet& cs) {
    for (int c = 0; c < cs.columns(); ++c) {
      const auto col = cs.column(c);
      for (std::size_t i = 0; i < col.size(); i += 8) {
        std::uint64_t w = 0;
        std::memcpy(&w, col.data() + i,
                    std::min<std::size_t>(8, col.size() - i));
        fold(w);
      }
    }
  };
  auto fold_name = [&fold](const std::string& s) {
    fold(s.size());
    for (const char c : s) fold(static_cast<unsigned char>(c));
  };

  std::vector<CodecPtr> codecs;
  for (int k = 1; k <= 13; ++k)
    for (const int rows : {1, 3, k})
      codecs.push_back(std::make_unique<Raid5Codec>(k, rows));
  for (int k = 1; k <= 13; ++k)
    codecs.push_back(std::make_unique<EvenOddCodec>(k));
  for (int k = 1; k <= 13; ++k) codecs.push_back(std::make_unique<RdpCodec>(k));
  for (const int p : {3, 5, 7, 11, 13})
    codecs.push_back(std::make_unique<XCodec>(p));

  int decodes = 0;
  int failures = 0;
  std::uint64_t seed = 0x5eed;
  for (const CodecPtr& codec : codecs) {
    fold_name(codec->name());
    fold(static_cast<std::uint64_t>(codec->data_columns()));
    fold(static_cast<std::uint64_t>(codec->parity_columns()));
    fold(static_cast<std::uint64_t>(codec->rows()));
    fold(static_cast<std::uint64_t>(codec->data_rows()));
    fold(static_cast<std::uint64_t>(codec->fault_tolerance()));
    for (const std::size_t eb : {8u, 64u, 256u}) {
      // fill_pattern leaves garbage in the parity cells: encode must
      // overwrite them.
      ColumnSet reference = codec->make_stripe(eb);
      reference.fill_pattern(++seed);
      fold(static_cast<std::uint64_t>(codec->encode(reference).code()));
      fold_bytes(reference);

      ColumnSet misshapen(codec->total_columns(), codec->rows() + 1, eb);
      fold(static_cast<std::uint64_t>(codec->encode(misshapen).code()));
      fold(static_cast<std::uint64_t>(codec->decode(misshapen, {0}).code()));

      for (const auto& erased : erasure_sets(codec->total_columns(),
                                             codec->fault_tolerance())) {
        // Erased columns hold garbage, not zeros: decode must overwrite
        // every one of their cells.
        ColumnSet damaged = reference;
        for (const int c : erased) {
          if (c < 0 || c >= damaged.columns()) continue;
          auto col = damaged.column(c);
          for (std::size_t i = 0; i < col.size(); ++i)
            col[i] = static_cast<std::uint8_t>(0xA5 ^ (i * 7) ^ c);
        }
        const Status st = codec->decode(damaged, erased);
        ++decodes;
        if (!st.is_ok()) ++failures;
        fold(erased.size());
        for (const int c : erased) fold(static_cast<std::uint64_t>(c));
        fold(static_cast<std::uint64_t>(st.code()));
        fold_bytes(damaged);
      }
    }
  }

  // 70 codes x 3 element sizes; the failures are exactly the three
  // malformed sets of each.
  EXPECT_EQ(decodes, 6450);
  EXPECT_EQ(failures, 630);
  EXPECT_EQ(h, 0x3a799b2c2a7d7fa7ull) << std::hex << h;
}

}  // namespace
}  // namespace sma::ec
