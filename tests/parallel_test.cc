// Tests for support/parallel.h: exactly-once index coverage across job
// counts, degenerate sizes, the worker-thread bound, exception propagation
// to the caller, and the inline single-job path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
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

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  // Includes more jobs than items (16 jobs, n <= 5).
  for (unsigned jobs : {0u, 1u, 2u, 4u, 16u}) {
    for (size_t n : {size_t{1}, size_t{3}, size_t{5}, size_t{1000}}) {
      std::vector<std::atomic<uint32_t>> hits(n);
      for (auto& h : hits) {
        h.store(0);
      }
      ParallelFor(n, jobs, [&hits](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1u) << "jobs=" << jobs << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ParallelForTest, ZeroItemsNeverInvokesFn) {
  for (unsigned jobs : {1u, 4u}) {
    ParallelFor(0, jobs, [](size_t) { FAIL() << "fn called for empty range"; });
  }
}

TEST(ParallelForTest, RunsOnAtMostNThreads) {
  // Each index waits briefly so that every worker takes some; the number
  // of distinct threads seen is bounded by both the job count and n.
  for (const auto& [n, jobs] : {std::pair<size_t, unsigned>{64, 3}, {2, 8}}) {
    std::mutex mu;
    std::set<std::thread::id> seen;
    ParallelFor(n, jobs, [&](size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(std::this_thread::get_id());
    });
    EXPECT_GE(seen.size(), 1u);
    EXPECT_LE(seen.size(), std::min<size_t>(n, jobs)) << "n=" << n << " jobs=" << jobs;
  }
}

TEST(ParallelForTest, ExceptionPropagatesToTheCaller) {
  for (int round = 0; round < 3; ++round) {
    try {
      ParallelFor(500, 4, [](size_t i) {
        if (i == 123) {
          throw std::runtime_error("worker failure");
        }
      });
      FAIL() << "expected rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "worker failure");
    }
  }
}

TEST(ParallelForTest, SingleJobRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  ParallelFor(8, 1, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 8u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ParallelForTest, RethrowsExceptionFromInlinePath) {
  EXPECT_THROW(ParallelFor(4, 1,
                           [](size_t i) {
                             if (i == 2) {
                               throw std::runtime_error("boom");
                             }
                           }),
               std::runtime_error);
}

}  // namespace
}  // namespace redfat
