#include "src/support/parallel.h"

#include <algorithm>
#include <exception>

namespace redfat {
namespace {

// Depth of parallel regions on this thread. Nested ParallelFor calls (from a
// worker or from the submitting thread while its region runs) execute inline
// so nested (image x function) parallelism never oversubscribes. The serial
// fast path (one job, or work that fits one chunk) does NOT count as a
// region: a degenerate outer loop must not disable inner parallelism.
thread_local int tl_region_depth = 0;

size_t DefaultGrain(size_t n, unsigned jobs) {
  // Big enough to amortize the atomic, small enough to balance skewed
  // per-item costs (trampoline sizes vary).
  return std::max<size_t>(1, n / (static_cast<size_t>(jobs) * 8));
}

void RunSerial(size_t n, const std::function<void(size_t, size_t)>& fn,
               size_t grain) {
  for (size_t begin = 0; begin < n; begin += grain) {
    fn(begin, std::min(n, begin + grain));
  }
}

}  // namespace

unsigned HardwareJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned ResolveJobs(unsigned jobs) { return jobs == 0 ? HardwareJobs() : jobs; }

bool ThreadPool::OnParallelThread() { return tl_region_depth > 0; }

namespace {
std::atomic<uint64_t> g_pools_created{0};
}  // namespace

uint64_t ThreadPool::PoolsCreated() {
  return g_pools_created.load(std::memory_order_relaxed);
}

ThreadPool::ThreadPool(unsigned jobs) : jobs_(ResolveJobs(jobs)) {
  g_pools_created.fetch_add(1, std::memory_order_relaxed);
  threads_.reserve(jobs_ - 1);
  for (unsigned t = 1; t < jobs_; ++t) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void ThreadPool::RunChunks(Task& t) {
  ++tl_region_depth;
  for (;;) {
    const size_t begin = t.next.fetch_add(t.grain);
    if (begin >= t.n) {
      break;
    }
    const size_t end = std::min(t.n, begin + t.grain);
    try {
      (*t.fn)(begin, end);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(t.error_mu);
        if (!t.error) {
          t.error = std::current_exception();
        }
      }
      // Drain the queue so every participant stops promptly.
      t.next.store(t.n);
      break;
    }
  }
  --tl_region_depth;
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_work_.wait(lock, [&] {
      return shutdown_ || generation_ != seen_generation;
    });
    if (shutdown_) {
      return;
    }
    seen_generation = generation_;
    Task* t = task_;
    if (t == nullptr) {
      // The region finished before this worker woke; nothing to do.
      continue;
    }
    ++t->workers;
    lock.unlock();
    RunChunks(*t);
    lock.lock();
    if (--t->workers == 0) {
      cv_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelForChunked(
    size_t n, size_t grain, const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (grain == 0) {
    grain = DefaultGrain(n, jobs_);
  }
  // Inline paths: single-threaded pools, work that fits one chunk, and
  // nested regions (dispatching from inside a region would stall on the
  // region lock held by the enclosing loop's submitter).
  if (jobs_ <= 1 || threads_.empty() || n <= grain || tl_region_depth > 0) {
    RunSerial(n, fn, grain);
    return;
  }
  std::lock_guard<std::mutex> region_lock(region_mu_);
  Task t;
  t.fn = &fn;
  t.n = n;
  t.grain = grain;
  {
    std::lock_guard<std::mutex> lock(mu_);
    task_ = &t;
    ++generation_;
    active_regions_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_work_.notify_all();
  RunChunks(t);
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Unpublish the task before waiting: a worker that wakes late sees
    // nullptr and skips; any worker already registered is counted and
    // waited for, so `t` cannot be touched after this scope.
    task_ = nullptr;
    cv_done_.wait(lock, [&] { return t.workers == 0; });
    active_regions_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (t.error) {
    std::rethrow_exception(t.error);
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  ParallelForChunked(n, 0, [&fn](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      fn(i);
    }
  });
}

}  // namespace redfat
