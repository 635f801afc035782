// Layout explorer: prints the element arrangements behind the paper's
// Figs. 1, 3 and 8 for any n, and evaluates Properties 1-3 for the
// iterated transformation family.
//
//   $ ./layout_explorer [n]          (default n = 3, the paper's figure)
#include <cstdio>
#include <cstdlib>

#include "layout/properties.hpp"

int main(int argc, char** argv) {
  using namespace sma::layout;

  int n = 3;
  if (argc > 1) {
    n = std::atoi(argv[1]);
    if (n < 1 || n > 12) {
      std::fprintf(stderr, "usage: %s [n between 1 and 12]\n", argv[0]);
      return 1;
    }
  }

  std::printf("== Traditional mirror (paper Fig. 1) ==\n");
  const auto traditional = make_arrangement("traditional", n).take();
  std::printf("%s\n", render_arrays(traditional).c_str());
  std::printf("properties: %s\n\n",
              evaluate_properties(traditional).to_string().c_str());

  std::printf("== Shifted mirror (paper Fig. 3) ==\n");
  const auto shifted = make_arrangement("shifted", n).take();
  std::printf("%s\n", render_arrays(shifted).c_str());
  std::printf("properties: %s\n",
              evaluate_properties(shifted).to_string().c_str());
  std::printf("formula check: replica of a(i,j) sits at b(<i+j>%%%d, i)\n\n",
              n);

  std::printf("== Iterated transformation family (paper Fig. 8) ==\n");
  for (int k = 1; k <= 6; ++k) {
    auto arr = make_iterated(n, k);
    const auto report = evaluate_properties(arr);
    std::printf("after %d transformation(s): %s%s\n", k,
                report.to_string().c_str(),
                report.all() ? "   <- usable shifted-mirror layout" : "");
  }
  std::printf("\nArrangements after 1, 3, 5 transformations:\n");
  for (int k = 1; k <= 5; k += 2) {
    auto arr = make_iterated(n, k);
    std::printf("%s\n", render_arrays(arr).c_str());
  }
  return 0;
}
