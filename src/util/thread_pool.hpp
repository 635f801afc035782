// parallel_for for experiment sweeps.
//
// Experiments enumerate many independent failure scenarios; parallel_for
// fans them out across hardware threads. The simulator itself is single-
// threaded per scenario (deterministic), so parallelism lives only at
// this outer, embarrassingly-parallel layer.
#pragma once

#include <cstddef>
#include <functional>

namespace sma {

/// Run body(i) for i in [0, count) across a transient pool and block
/// until completion. body must be safe to call concurrently for distinct
/// indices. Falls back to serial execution for tiny ranges.
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t threads = 0);

}  // namespace sma
