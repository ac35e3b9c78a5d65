#include "cmdp/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace cmdp = cmdsmc::cmdp;

TEST(LaneRange, CoversAllIndicesExactlyOnce) {
  for (std::size_t n : {0u, 1u, 7u, 64u, 1000u, 4097u}) {
    for (unsigned lanes : {1u, 2u, 3u, 8u, 24u}) {
      std::vector<int> hits(n, 0);
      for (unsigned t = 0; t < lanes; ++t) {
        const cmdp::Range r = cmdp::lane_range(n, t, lanes);
        ASSERT_LE(r.begin, r.end);
        for (std::size_t i = r.begin; i < r.end; ++i) ++hits[i];
      }
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i], 1) << "n=" << n << " lanes=" << lanes << " i=" << i;
    }
  }
}

TEST(LaneRange, RangesAreOrdered) {
  const std::size_t n = 1001;
  const unsigned lanes = 7;
  std::size_t prev_end = 0;
  for (unsigned t = 0; t < lanes; ++t) {
    const cmdp::Range r = cmdp::lane_range(n, t, lanes);
    EXPECT_EQ(r.begin, prev_end);
    prev_end = r.end;
  }
  EXPECT_EQ(prev_end, n);
}

TEST(ParallelFor, VisitsEveryIndexOnce) {
  cmdp::ThreadPool pool(4);
  const std::size_t n = 100000;  // above the serial cutoff
  std::vector<std::atomic<int>> hits(n);
  cmdp::parallel_for(pool, n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, SmallSizesRunSerially) {
  cmdp::ThreadPool pool(4);
  std::vector<int> hits(100, 0);
  cmdp::parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelChunks, EveryLaneCalledOnceWithDisjointRanges) {
  cmdp::ThreadPool pool(4);
  const std::size_t n = 50000;
  std::vector<int> lane_calls(pool.size(), 0);
  std::vector<std::atomic<int>> hits(n);
  cmdp::parallel_chunks(pool, n, [&](cmdp::Range r, unsigned tid) {
    ++lane_calls[tid];
    for (std::size_t i = r.begin; i < r.end; ++i)
      hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (unsigned t = 0; t < pool.size(); ++t) EXPECT_EQ(lane_calls[t], 1);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParallelReduce, MatchesSerialSum) {
  cmdp::ThreadPool pool(8);
  const std::size_t n = 200001;
  std::vector<std::int64_t> v(n);
  std::iota(v.begin(), v.end(), -1000);
  const auto expected = std::accumulate(v.begin(), v.end(), std::int64_t{0});
  const auto got = cmdp::parallel_sum<std::int64_t>(
      pool, n, [&](std::size_t i) { return v[i]; });
  EXPECT_EQ(got, expected);
}

TEST(ParallelReduce, MaxReduction) {
  cmdp::ThreadPool pool(4);
  const std::size_t n = 123457;
  std::vector<int> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<int>((i * 2654435761u) % 1000003);
  const int expected = *std::max_element(v.begin(), v.end());
  const int got = cmdp::parallel_reduce<int>(
      pool, n, 0, [&](std::size_t i) { return v[i]; },
      [](int a, int b) { return a > b ? a : b; });
  EXPECT_EQ(got, expected);
}

TEST(ThreadPool, SizeOneRunsInline) {
  cmdp::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  int calls = 0;
  pool.parallel([&](unsigned tid) {
    EXPECT_EQ(tid, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, RepeatedDispatchesAreStable) {
  cmdp::ThreadPool pool(6);
  std::atomic<int> total{0};
  for (int rep = 0; rep < 200; ++rep) {
    pool.parallel([&](unsigned) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 200 * 6);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  auto& a = cmdp::ThreadPool::global();
  auto& b = cmdp::ThreadPool::global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1u);
}
