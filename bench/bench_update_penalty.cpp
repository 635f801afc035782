// Update-penalty comparison (paper Section II / VI-C): parity elements
// touched by a single data-element modification, measured black-box by
// differential re-encoding. The mirror methods sit at the theoretical
// optimum (1 replica write, +1 parity element with the parity disk);
// EVENODD pays up to p updates on its S diagonal; RDP pays 3 on most
// elements.
#include "common.hpp"
#include "ec/evenodd.hpp"
#include "ec/raid5.hpp"
#include "ec/rdp.hpp"
#include <algorithm>

#include "ec/prime.hpp"
#include "ec/rs.hpp"
#include "ec/update_penalty.hpp"
#include "ec/xcode.hpp"

int main() {
  using namespace sma;

  Table table("Parity elements updated per single data-element write");
  table.set_header({"code", "n", "tolerance", "min", "avg", "max",
                    "optimal"});

  for (int n = 3; n <= 7; ++n) {
    const ec::Raid5Codec raid5(n, n);
    const ec::EvenOddCodec evenodd(n);
    const ec::RdpCodec rdp(n);
    const ec::CauchyRsCodec rs(n, 2, n);
    // X-code exists only at prime widths (vertical codes do not
    // shorten); compare at the nearest prime >= n.
    const ec::XCodec xcode(ec::next_prime_at_least(std::max(3, n)));
    const ec::Codec* codecs[] = {&raid5, &evenodd, &rdp, &rs, &xcode};
    for (const auto* codec : codecs) {
      auto penalty = ec::measure_update_penalty(*codec);
      if (!penalty.is_ok()) {
        std::fprintf(stderr, "%s: %s\n", codec->name().c_str(),
                     penalty.status().to_string().c_str());
        return 1;
      }
      table.add_row({codec->name(), Table::num(n),
                     Table::num(codec->fault_tolerance()),
                     Table::num(penalty.value().min),
                     Table::num(penalty.value().average, 2),
                     Table::num(penalty.value().max),
                     Table::num(ec::optimal_parity_updates(
                         codec->fault_tolerance()))});
    }
  }
  std::printf("(The mirror methods update exactly 1 replica element, plus\n"
              " exactly 1 parity element in the with-parity variant — the\n"
              " row-code optimum, independent of n; see "
              "bench_write_access.)\n\n");
  bench::emit(table, "sma_update_penalty.csv");
  return 0;
}
