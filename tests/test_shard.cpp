// The cost-priced shard plan the benchmark suite's build probe times
// (quantile boundary placement, greedy LPT lane assignment, degenerate
// inputs), and the coverage contract of the step's own partition: the
// count-quantile cuts dispatched through the sort's lane loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "cmdp/shard.h"
#include "cmdp/sort.h"
#include "cmdp/thread_pool.h"

namespace {

using namespace cmdsmc;

// Every cell in [0, ncells) appears in exactly one shard, shards are
// contiguous and ascending, and order/lane_begin index every shard once.
void check_integrity(const cmdp::ShardPlan& plan, std::size_t ncells,
                     unsigned lanes) {
  ASSERT_FALSE(plan.bounds.empty());
  EXPECT_EQ(plan.bounds.front(), 0u);
  EXPECT_EQ(plan.bounds.back(), ncells);
  for (std::size_t s = 0; s + 1 < plan.bounds.size(); ++s)
    EXPECT_LE(plan.bounds[s], plan.bounds[s + 1]);

  EXPECT_EQ(plan.lanes, lanes);
  ASSERT_EQ(plan.lane_begin.size(), lanes + 1);
  EXPECT_EQ(plan.lane_begin.front(), 0u);
  EXPECT_EQ(plan.lane_begin.back(), plan.order.size());
  EXPECT_EQ(plan.order.size(), plan.count());
  std::vector<std::uint32_t> seen(plan.count(), 0);
  for (const std::uint32_t s : plan.order) {
    ASSERT_LT(s, plan.count());
    ++seen[s];
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](std::uint32_t c) { return c == 1; }))
      << "order must visit every shard exactly once";
  // Within a lane the shards stay in ascending cell order (the executor
  // walks them front to back; keeps memory access monotone).
  for (unsigned t = 0; t < lanes; ++t)
    for (std::uint32_t k = plan.lane_begin[t];
         k + 1 < plan.lane_begin[t + 1]; ++k)
      EXPECT_LT(plan.order[k], plan.order[k + 1]);
}

TEST(ShardPlan, UniformCostSplitsAtQuantiles) {
  const std::vector<double> cost(64, 1.0);
  const auto plan = cmdp::build_shard_plan(cost, 8, 4);
  check_integrity(plan, 64, 4);
  ASSERT_EQ(plan.count(), 8u);
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_EQ(plan.bounds[s + 1] - plan.bounds[s], 8u)
        << "uniform cost must give equal-size shards";
    EXPECT_DOUBLE_EQ(plan.shard_cost[s], 8.0);
  }
  // Equal loads on every lane: perfectly balanced.
  EXPECT_DOUBLE_EQ(plan.imbalance, 1.0);
}

TEST(ShardPlan, BoundariesTrackCostNotCellCount) {
  // All the cost lives in the first quarter (a shock layer): the shards
  // there must be narrow, the downstream ones wide.
  std::vector<double> cost(100, 0.01);
  for (int c = 0; c < 25; ++c) cost[c] = 10.0;
  const auto plan = cmdp::build_shard_plan(cost, 10, 2);
  check_integrity(plan, 100, 2);
  const std::uint32_t first = plan.bounds[1] - plan.bounds[0];
  const std::uint32_t last = plan.bounds[plan.count()] -
                             plan.bounds[plan.count() - 1];
  EXPECT_LT(first, 10u) << "hot region should get narrow shards";
  EXPECT_GT(last, 10u) << "cold region should get wide shards";
}

TEST(ShardPlan, HotCellYieldsEmptyShardsNotASplitCell) {
  // One cell carries ~all the cost across several quantiles.  The cell must
  // not split; the plan absorbs it as empty shards beside one hot shard.
  std::vector<double> cost(16, 1e-6);
  cost[7] = 1000.0;
  const auto plan = cmdp::build_shard_plan(cost, 8, 4);
  check_integrity(plan, 16, 4);
  std::size_t empties = 0, hot = 0;
  for (std::size_t s = 0; s < plan.count(); ++s) {
    const std::uint32_t w = plan.bounds[s + 1] - plan.bounds[s];
    if (w == 0) ++empties;
    if (plan.bounds[s] <= 7 && 7 < plan.bounds[s + 1]) ++hot;
  }
  EXPECT_EQ(hot, 1u) << "cell 7 must land in exactly one shard";
  EXPECT_GT(empties, 0u);
  // One dominant shard on a 4-lane plan: the assignment is (nearly) all on
  // one lane, imbalance ~ lanes.
  EXPECT_GT(plan.imbalance, 3.0);
}

TEST(ShardPlan, GreedyAssignmentBalancesSkewedShards) {
  // Shard costs engineered 8,7,6,...,1 via unit cells; greedy LPT on 2
  // lanes reaches the optimum (18 | 18) here.
  std::vector<double> cost;
  for (int s = 8; s >= 1; --s)
    for (int i = 0; i < s; ++i) cost.push_back(1.0);
  const auto plan = cmdp::build_shard_plan(cost, 8, 2);
  check_integrity(plan, cost.size(), 2);
  std::vector<double> load(2, 0.0);
  for (unsigned t = 0; t < 2; ++t)
    for (std::uint32_t k = plan.lane_begin[t]; k < plan.lane_begin[t + 1];
         ++k)
      load[t] += plan.shard_cost[plan.order[k]];
  EXPECT_DOUBLE_EQ(load[0] + load[1], 36.0);
  EXPECT_NEAR(load[0], load[1], 4.0 + 1e-12)
      << "LPT must not leave more than one shard of spread";
  EXPECT_LE(plan.imbalance, 36.0 / 36.0 + 0.25);
}

TEST(ShardPlan, AllZeroCostFallsBackToEqualCells) {
  const std::vector<double> cost(40, 0.0);
  const auto plan = cmdp::build_shard_plan(cost, 4, 2);
  check_integrity(plan, 40, 2);
  ASSERT_EQ(plan.count(), 4u);
  for (std::size_t s = 0; s < 4; ++s)
    EXPECT_EQ(plan.bounds[s + 1] - plan.bounds[s], 10u);
}

TEST(ShardPlan, ShardCountClampsToCellCount) {
  const std::vector<double> cost(3, 1.0);
  const auto plan = cmdp::build_shard_plan(cost, 64, 2);
  check_integrity(plan, 3, 2);
  EXPECT_LE(plan.count(), 3u);
  const auto one = cmdp::build_shard_plan(cost, 0, 1);
  check_integrity(one, 3, 1);
  EXPECT_EQ(one.count(), 1u);
  EXPECT_EQ(one.lanes, 1u);
}

TEST(ShardPlan, DeterministicForIdenticalInput) {
  std::vector<double> cost(128);
  for (std::size_t c = 0; c < cost.size(); ++c)
    cost[c] = static_cast<double>((c * 2654435761u) % 97) + 0.5;
  const auto a = cmdp::build_shard_plan(cost, 12, 3);
  const auto b = cmdp::build_shard_plan(cost, 12, 3);
  EXPECT_EQ(a.bounds, b.bounds);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.lane_begin, b.lane_begin);
  EXPECT_DOUBLE_EQ(a.imbalance, b.imbalance);
}

TEST(ShardPlan, ParallelShardsCoversEveryCellOnce) {
  // 257 cells of uneven occupancy, cut at count quantiles for a 4-lane
  // pool: the lane dispatch must hand every cell to exactly one lane, and
  // one lane must walk them all.
  std::vector<std::uint32_t> starts(257);
  std::uint32_t n = 0;
  for (std::size_t c = 0; c < starts.size(); ++c) {
    starts[c] = n;
    n += static_cast<std::uint32_t>((c * 7) % 13);
  }
  std::vector<std::atomic<int>> hits(starts.size());
  for (auto& h : hits) h.store(0);
  for (const unsigned lanes : {4u, 1u}) {
    cmdp::ThreadPool pool(lanes);
    std::vector<std::uint32_t> cuts(lanes + 1);
    cmdp::count_quantile_cuts(starts, n, cuts);
    EXPECT_LT(cmdp::cut_imbalance(starts, n, cuts), 1.10);
    cmdp::for_each_sort_lane(pool, lanes, [&](unsigned t) {
      for (std::uint32_t c = cuts[t]; c < cuts[t + 1]; ++c)
        hits[c].fetch_add(1);
    });
  }
  for (std::size_t c = 0; c < hits.size(); ++c)
    ASSERT_EQ(hits[c].load(), 2) << "cell " << c;
}

}  // namespace
