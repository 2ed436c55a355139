#include "src/support/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace redfat {

unsigned HardwareJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned ResolveJobs(unsigned jobs) { return jobs == 0 ? HardwareJobs() : jobs; }

void ParallelFor(size_t n, unsigned jobs, const std::function<void(size_t)>& fn) {
  const size_t workers = std::min<size_t>(std::max(jobs, 1u), n);
  if (workers <= 1) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  std::atomic<size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  const auto work = [&] {
    for (size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) {
          error = std::current_exception();
        }
        next = n;  // every worker stops at its next take
        return;
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) {
    try {
      threads.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // no more threads to be had: the ones running share the work
    }
  }
  work();
  for (std::thread& t : threads) {
    t.join();
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

}  // namespace redfat
