#include "apps/runner.hpp"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace cni::apps {

std::size_t sweep_jobs() {
  const char* env = std::getenv("CNI_BENCH_JOBS");
  if (env == nullptr) {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : hc;
  }
  const std::string_view v(env);
  std::uint32_t jobs = 0;
  const char* last = v.data() + v.size();
  const auto [end, ec] = std::from_chars(v.data(), last, jobs);
  if (ec != std::errc() || end != last || jobs < 1 || jobs > kMaxSweepJobs) {
    std::fprintf(stderr,
                 "error: invalid CNI_BENCH_JOBS=%s (takes a worker count between 1 and "
                 "%u)\n",
                 env, kMaxSweepJobs);
    std::exit(2);
  }
  return jobs;
}

void parallel_indexed(std::size_t n, util::FunctionRef<void(std::size_t)> fn) {
  const std::size_t jobs = std::min(sweep_jobs(), n);
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (error == nullptr) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (std::size_t j = 0; j < jobs; ++j) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace cni::apps
