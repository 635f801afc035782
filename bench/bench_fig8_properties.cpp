// Regenerates Fig. 8's analysis (paper Section VI-E): apply the shift
// transformation iteratively and report which of Properties 1-3 each
// resultant arrangement satisfies. Odd iterates must satisfy P1/P2;
// only some satisfy P3 (for n=3, iterates 1 and 5 do, iterate 3 does
// not — exactly the paper's example).
#include "common.hpp"
#include "layout/properties.hpp"

int main() {
  using namespace sma;

  Table table("Fig. 8 — iterated transformation family properties");
  table.set_header({"n", "iterations", "bijective", "P1", "P2", "P3",
                    "usable as shifted-mirror layout"});
  auto yn = [](bool b) { return std::string(b ? "yes" : "no"); };

  for (int n = 3; n <= 6; ++n) {
    for (int k = 0; k <= 6; ++k) {
      const auto arr = layout::make_iterated(n, k);
      const auto report = layout::evaluate_properties(arr);
      // Every Arrangement is a bijection (from_map proves it).
      table.add_row({Table::num(n), Table::num(k), yn(true),
                     yn(report.p1), yn(report.p2), yn(report.p3),
                     yn(report.all())});
    }
  }
  bench::emit(table, "sma_fig8_properties.csv");

  // Show the n=3 family itself, echoing the figure.
  for (int k = 1; k <= 5; k += 2) {
    const auto arr = layout::make_iterated(3, k);
    std::printf("After %d transformation(s):\n%s\n", k,
                layout::render_arrays(arr).c_str());
  }
  return 0;
}
