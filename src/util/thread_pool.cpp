#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace sma {

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t threads) {
  if (count == 0) return;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = std::min(threads, count);
  if (threads <= 1 || count <= 2) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        body(i);
      }
    });
  }
  for (auto& th : pool) th.join();
}

}  // namespace sma
