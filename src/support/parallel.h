// A minimal thread-pool work queue for the rewriting pipeline.
//
// ThreadPool::ParallelFor partitions [0, n) across the pool's workers, which
// pull chunks from a shared atomic counter. Callers own determinism: each
// index must write only its own output slot, so the result is independent
// of the schedule and `--jobs=N` output is byte-identical to `--jobs=1`.
//
// The workers stay alive between loops so a multi-pass pipeline (or a
// multi-image batch run) pays the thread spawn cost once instead of once
// per pass. Nested parallel regions run inline on the calling thread: a
// pool worker that reaches another ParallelFor executes it serially, so
// image-level x function-level nesting never oversubscribes the machine.
#ifndef REDFAT_SRC_SUPPORT_PARALLEL_H_
#define REDFAT_SRC_SUPPORT_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace redfat {

// Number of workers to use for `jobs == 0` ("auto"): the hardware
// concurrency, or 1 if it cannot be determined.
unsigned HardwareJobs();

// Resolves a user-supplied job count: 0 means auto, anything else is taken
// as-is.
unsigned ResolveJobs(unsigned jobs);

// A reusable pool of `jobs - 1` persistent worker threads plus the calling
// thread. One parallel region runs at a time; concurrent submissions from
// independent threads are serialized, and submissions from inside a region
// (any pool's region, on any pool) run inline on the submitting thread.
//
// If fn throws, the first exception (by completion order) is rethrown on the
// submitting thread after all workers have stopped; remaining unstarted
// indices are abandoned, so a throw means "some subset of [0, n) ran". The
// pool remains usable after a throw.
class ThreadPool {
 public:
  // `jobs` is resolved by ResolveJobs: 0 = hardware concurrency.
  explicit ThreadPool(unsigned jobs);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // The resolved degree of parallelism (>= 1, counting the caller).
  unsigned jobs() const { return jobs_; }

  // Process-wide count of ThreadPool constructions. A warm server asserts
  // this stays flat across requests: every rewrite reuses the injected pool
  // instead of letting Pipeline::Run spawn a scoped one per request.
  static uint64_t PoolsCreated();

  // Invokes fn(i) for every i in [0, n); blocks until done.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  // Invokes fn(begin, end) over half-open chunks partitioning [0, n), each
  // at most `grain` long (0 = auto). The partition depends only on
  // (n, grain), so per-chunk outputs are schedule-independent.
  void ParallelForChunked(size_t n, size_t grain,
                          const std::function<void(size_t, size_t)>& fn);

  // True while any parallel region dispatched through this pool is running.
  // Lazily-memoizing caches use this to reject single-thread-only accessors
  // from inside a region.
  bool InParallelRegion() const {
    return active_regions_.load(std::memory_order_relaxed) != 0;
  }

  // True when the calling thread is currently executing inside a parallel
  // region of any pool. Nested regions run inline.
  static bool OnParallelThread();

 private:
  struct Task {
    const std::function<void(size_t, size_t)>* fn = nullptr;
    size_t n = 0;
    size_t grain = 1;
    std::atomic<size_t> next{0};
    int workers = 0;  // guarded by ThreadPool::mu_
    std::exception_ptr error;
    std::mutex error_mu;
  };

  void WorkerLoop();
  static void RunChunks(Task& t);

  unsigned jobs_;
  std::vector<std::thread> threads_;
  std::mutex mu_;                 // guards generation_/task_/shutdown_/workers
  std::mutex region_mu_;          // serializes whole parallel regions
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  uint64_t generation_ = 0;
  Task* task_ = nullptr;
  bool shutdown_ = false;
  std::atomic<uint32_t> active_regions_{0};
};

}  // namespace redfat

#endif  // REDFAT_SRC_SUPPORT_PARALLEL_H_
