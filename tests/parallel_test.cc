// Tests for support/parallel.h: exactly-once index coverage across job
// counts, degenerate sizes, schedule-independent chunking, and exception
// propagation to the caller.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/support/parallel.h"

namespace redfat {
namespace {

TEST(ParallelTest, ResolveJobsMapsZeroToHardware) {
  EXPECT_EQ(ResolveJobs(0), HardwareJobs());
  EXPECT_GE(HardwareJobs(), 1u);
  EXPECT_EQ(ResolveJobs(1), 1u);
  EXPECT_EQ(ResolveJobs(7), 7u);
}

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  // Includes more jobs than items (16 jobs, n <= 3).
  for (unsigned jobs : {1u, 2u, 4u, 16u}) {
    ThreadPool pool(jobs);
    EXPECT_EQ(pool.jobs(), jobs);
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{5}, size_t{1000}}) {
      std::vector<std::atomic<uint32_t>> hits(n);
      for (auto& h : hits) {
        h.store(0);
      }
      pool.ParallelFor(n, [&hits](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1u) << "jobs=" << jobs << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ZeroItemsNeverInvokesFn) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [](size_t) { FAIL() << "fn called for empty range"; });
  pool.ParallelForChunked(0, 0, [](size_t, size_t) { FAIL() << "fn called for empty range"; });
}

TEST(ThreadPoolTest, ReusableAcrossManyRegions) {
  // The whole point of the pool: many loops, one set of workers. Run enough
  // regions that a spawn-per-region implementation would be obvious, and
  // verify totals.
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(64, [&total](size_t i) { total.fetch_add(i); });
  }
  EXPECT_EQ(total.load(), 200ull * (63ull * 64ull / 2));
}

TEST(ThreadPoolTest, NestedRegionsRunInline) {
  // A worker reaching another ParallelFor must execute it serially on its
  // own thread (no deadlock, no oversubscription) — for nesting on the same
  // pool and on another pool.
  ThreadPool pool(4);
  ThreadPool other(2);
  std::atomic<uint64_t> inner_hits{0};
  pool.ParallelFor(8, [&](size_t) {
    EXPECT_TRUE(ThreadPool::OnParallelThread());
    pool.ParallelFor(16, [&](size_t) { inner_hits.fetch_add(1); });
    other.ParallelFor(16, [&](size_t) { inner_hits.fetch_add(1); });
  });
  EXPECT_EQ(inner_hits.load(), 8u * 2u * 16u);
  EXPECT_FALSE(ThreadPool::OnParallelThread());
}

TEST(ThreadPoolTest, InParallelRegionTracksActiveRegions) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.InParallelRegion());
  std::atomic<bool> seen_active{false};
  pool.ParallelFor(64, [&](size_t) {
    if (pool.InParallelRegion()) {
      seen_active.store(true);
    }
  });
  EXPECT_TRUE(seen_active.load());
  EXPECT_FALSE(pool.InParallelRegion());
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    try {
      pool.ParallelFor(500, [](size_t i) {
        if (i == 123) {
          throw std::runtime_error("pool failure");
        }
      });
      FAIL() << "expected rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "pool failure");
    }
    // The pool must still work after the throw.
    std::atomic<uint32_t> ok{0};
    pool.ParallelFor(100, [&ok](size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 100u);
  }
}

TEST(ThreadPoolTest, ChunkedHonorsGrainAndPartition) {
  ThreadPool pool(4);
  std::vector<std::atomic<uint32_t>> hits(777);
  for (auto& h : hits) {
    h.store(0);
  }
  pool.ParallelForChunked(777, 50, [&](size_t begin, size_t end) {
    EXPECT_LE(end - begin, size_t{50});
    for (size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1);
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1u) << i;
  }
}

TEST(ThreadPoolTest, ChunkPartitionIsScheduleIndependent) {
  // The (begin, end) chunk set must be a pure function of (n, grain): collect
  // it on a 1-job and an 8-job pool and compare as sets.
  auto collect = [](unsigned jobs, size_t n, size_t grain) {
    ThreadPool pool(jobs);
    std::mutex mu;
    std::vector<std::pair<size_t, size_t>> chunks;
    pool.ParallelForChunked(n, grain, [&](size_t begin, size_t end) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace_back(begin, end);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  for (size_t n : {size_t{1}, size_t{500}, size_t{1001}}) {
    for (size_t grain : {size_t{1}, size_t{3}, size_t{64}, size_t{5000}}) {
      EXPECT_EQ(collect(1, n, grain), collect(8, n, grain)) << "n=" << n << " grain=" << grain;
    }
  }
}

TEST(ThreadPoolTest, SingleJobPoolRunsInlineInOrder) {
  ThreadPool pool(1);
  std::vector<size_t> order;
  pool.ParallelFor(8, [&order](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 8u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ThreadPoolTest, RethrowsExceptionFromInlinePath) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(4,
                                [](size_t i) {
                                  if (i == 2) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
}

}  // namespace
}  // namespace redfat
