#include "cmdp/sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "rng/rng.h"

namespace cmdp = cmdsmc::cmdp;

namespace {

std::vector<std::uint32_t> random_keys(std::size_t n, std::uint32_t bound,
                                       std::uint64_t seed) {
  cmdsmc::rng::SplitMix64 g(seed);
  std::vector<std::uint32_t> keys(n);
  for (auto& k : keys) k = g.next_below(bound);
  return keys;
}

// Reference stable order via std::stable_sort of indices.
std::vector<std::uint32_t> reference_order(
    const std::vector<std::uint32_t>& keys) {
  std::vector<std::uint32_t> idx(keys.size());
  std::iota(idx.begin(), idx.end(), 0u);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return keys[a] < keys[b];
                   });
  return idx;
}

// Reference per-key exclusive starts (size bound + 1).
std::vector<std::uint32_t> reference_starts(
    const std::vector<std::uint32_t>& keys, std::uint32_t bound) {
  std::vector<std::uint32_t> starts(bound + 1, 0);
  for (auto k : keys) ++starts[k + 1];
  for (std::uint32_t k = 0; k < bound; ++k) starts[k + 1] += starts[k];
  return starts;
}

struct SortCase {
  std::size_t n;
  std::uint32_t bound;
};

class SortCases : public ::testing::TestWithParam<SortCase> {};

}  // namespace

TEST_P(SortCases, CountingSortMatchesStableReference) {
  const auto [n, bound] = GetParam();
  cmdp::ThreadPool pool(6);
  const auto keys = random_keys(n, bound, 1000 + n);
  std::vector<std::uint32_t> order(n);
  std::vector<std::uint32_t> starts(bound + std::size_t{1});
  cmdp::counting_sort_index(pool, keys, bound, order, starts);
  EXPECT_EQ(order, reference_order(keys));
  EXPECT_EQ(starts, reference_starts(keys, bound));
}

// The plan/apply entry points, as PairwiseScheme sorts its store.
TEST_P(SortCases, StableSortMatchesStableReference) {
  const auto [n, bound] = GetParam();
  cmdp::ThreadPool pool(6);
  const auto keys = random_keys(n, bound, 2000 + n);
  const cmdp::SortPlan plan = cmdp::counting_sort_plan(pool, keys, bound);
  std::vector<std::uint32_t> order(n, 0xdeadbeefu);
  cmdp::apply_sort_plan(pool, keys, plan,
                        [&](std::size_t src, std::size_t dst) {
                          order[dst] = static_cast<std::uint32_t>(src);
                        });
  EXPECT_EQ(order, reference_order(keys));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SortCases,
    ::testing::Values(SortCase{0, 16}, SortCase{1, 16}, SortCase{100, 4},
                      SortCase{5000, 1}, SortCase{10000, 65536},
                      SortCase{100000, 50000}, SortCase{200000, 7}));

TEST(Sort, OrderIsPermutation) {
  cmdp::ThreadPool pool(4);
  const auto keys = random_keys(77777, 997, 3);
  std::vector<std::uint32_t> order(keys.size());
  std::vector<std::uint32_t> starts(998);
  cmdp::counting_sort_index(pool, keys, 997, order, starts);
  std::sort(order.begin(), order.end());
  std::vector<std::uint32_t> iota(keys.size());
  std::iota(iota.begin(), iota.end(), 0u);
  EXPECT_EQ(order, iota);
}

TEST(Sort, KeysAscendingAfterGather) {
  cmdp::ThreadPool pool(4);
  const auto keys = random_keys(50000, 1234, 4);
  std::vector<std::uint32_t> order(keys.size());
  std::vector<std::uint32_t> starts(1235);
  cmdp::counting_sort_index(pool, keys, 1234, order, starts);
  std::vector<std::uint32_t> sorted(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) sorted[i] = keys[order[i]];
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
}

// The baselines read each cell's count off the sort's starts table as
// starts[c + 1] - starts[c].
TEST(Histogram, MatchesDirectCount) {
  cmdp::ThreadPool pool(5);
  const std::uint32_t bound = 321;
  const auto keys = random_keys(98765, bound, 5);
  std::vector<std::uint32_t> order(keys.size());
  std::vector<std::uint32_t> starts(bound + 1);
  cmdp::counting_sort_index(pool, keys, bound, order, starts);
  std::vector<std::uint32_t> counts(bound);
  for (std::uint32_t c = 0; c < bound; ++c)
    counts[c] = starts[c + 1] - starts[c];
  std::vector<std::uint32_t> ref(bound, 0);
  for (auto k : keys) ++ref[k];
  EXPECT_EQ(counts, ref);
}

TEST(Histogram, EmptyInput) {
  cmdp::ThreadPool pool(2);
  std::vector<std::uint32_t> keys;
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> starts(11, 99);
  cmdp::counting_sort_index(pool, keys, 10, order, starts);
  for (auto s : starts) EXPECT_EQ(s, 0u);
}

// --- Plan/apply API: the one-table sort the simulation hot loop uses ---

namespace {

// The shape the simulation hands the sort: the previous step's order, so
// keys climb with the index up to a little jitter, plus ~1% far outliers
// (particles that left the flow or were injected into it).
std::vector<std::uint32_t> near_sorted_keys(std::size_t n, std::uint32_t bound,
                                            std::uint64_t seed) {
  cmdsmc::rng::SplitMix64 g(seed);
  std::vector<std::uint32_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto base = static_cast<std::uint32_t>(i * bound / n);
    const std::uint32_t near = std::min(bound - 1, base + g.next_below(64));
    keys[i] = g.next_below(100) == 0 ? g.next_below(bound) : near;
  }
  return keys;
}

// Either input shape the plan tests cover: uniform keys, or the near-sorted
// keys the simulation hands the sort.
std::vector<std::uint32_t> shaped_keys(bool near, std::size_t n,
                                       std::uint32_t bound,
                                       std::uint64_t seed) {
  return near ? near_sorted_keys(n, bound, seed) : random_keys(n, bound, seed);
}

struct LaneSort {
  std::vector<std::uint32_t> starts;  // the table after the count passes
  std::vector<std::uint32_t> ends;    // per lane, count_key_range's result
  std::vector<std::uint32_t> order;
};

// Runs the lane routines themselves under explicit cuts (one lane per pool
// lane): every lane's count pass, then every lane's scatter pass.
LaneSort sort_with_cuts(cmdp::ThreadPool& pool,
                        const std::vector<std::uint32_t>& keys,
                        std::uint32_t bound,
                        const std::vector<std::uint32_t>& cuts) {
  EXPECT_EQ(cuts.size(), pool.size() + 1u);
  LaneSort out;
  std::vector<std::uint32_t> table(bound + 1, 0xdeadbeefu);
  out.ends.assign(pool.size(), 0);
  pool.parallel([&](unsigned t) {
    out.ends[t] = cmdp::count_key_range(keys, cuts[t], cuts[t + 1],
                                        table.data());
  });
  table[bound] = static_cast<std::uint32_t>(keys.size());
  out.starts = table;
  out.order.assign(keys.size(), 0xdeadbeefu);
  pool.parallel([&](unsigned t) {
    cmdp::scatter_key_range(keys, cuts[t], cuts[t + 1], table.data(),
                            [&](std::size_t src, std::size_t dst) {
                              out.order[dst] = static_cast<std::uint32_t>(src);
                            });
  });
  return out;
}

void expect_sorted_like_reference(const LaneSort& got,
                                  const std::vector<std::uint32_t>& keys,
                                  std::uint32_t bound,
                                  const std::vector<std::uint32_t>& cuts,
                                  const std::string& what) {
  const auto ref = reference_starts(keys, bound);
  EXPECT_EQ(got.starts, ref) << what;
  EXPECT_EQ(got.order, reference_order(keys)) << what;
  for (std::size_t t = 0; t < got.ends.size(); ++t)
    EXPECT_EQ(got.ends[t], ref[cuts[t + 1]]) << what << " lane " << t;
}

}  // namespace

TEST(SortPlan, KeyStartsMatchReference) {
  for (unsigned threads : {1u, 3u, 4u, 6u}) {
    cmdp::ThreadPool pool(threads);
    for (const bool near : {false, true}) {
      const std::uint32_t bound = near ? 40000 : 777;
      const auto keys = shaped_keys(near, 60000, bound, 11);
      const cmdp::SortPlan plan = cmdp::counting_sort_plan(pool, keys, bound);
      EXPECT_EQ(plan.n, keys.size());
      EXPECT_EQ(plan.key_bound, bound);
      // Uniform keys put every lane's keys in every block: one lane.
      EXPECT_EQ(plan.lanes, near ? threads : 1u);
      const auto ref = reference_starts(keys, bound);
      // The scatter consumes key_starts as its cursors, so the table must be
      // checked before any apply.
      ASSERT_EQ(plan.key_starts.size(), ref.size());
      for (std::size_t k = 0; k < ref.size(); ++k)
        ASSERT_EQ(plan.key_starts[k], ref[k])
            << "key " << k << " @" << threads << ", near-sorted " << near;
    }
  }
}

TEST(SortPlan, ApplyProducesStableOrder) {
  for (unsigned threads : {1u, 3u, 4u, 6u}) {
    cmdp::ThreadPool pool(threads);
    for (const bool near : {false, true}) {
      const std::uint32_t bound = near ? 30000 : 93;
      const auto keys = shaped_keys(near, 40000, bound, 12);
      const cmdp::SortPlan plan = cmdp::counting_sort_plan(pool, keys, bound);
      std::vector<std::uint32_t> order(keys.size());
      cmdp::apply_sort_plan(pool, keys, plan,
                            [&](std::size_t src, std::size_t dst) {
                              order[dst] = static_cast<std::uint32_t>(src);
                            });
      EXPECT_EQ(order, reference_order(keys))
          << threads << " threads, near-sorted " << near;
    }
  }
}

TEST(SortPlan, WorkspaceReuseAcrossCalls) {
  // Two different sorts back to back on one pool must not contaminate each
  // other through the shared workspace arena.
  cmdp::ThreadPool pool(4);
  const auto keys_a = random_keys(30000, 400, 14);
  const auto keys_b = random_keys(45000, 90, 15);
  std::vector<std::uint32_t> order_a(keys_a.size());
  std::vector<std::uint32_t> order_b(keys_b.size());
  std::vector<std::uint32_t> starts_a(401);
  std::vector<std::uint32_t> starts_b(91);
  cmdp::counting_sort_index(pool, keys_a, 400, order_a, starts_a);
  cmdp::counting_sort_index(pool, keys_b, 90, order_b, starts_b);
  EXPECT_EQ(order_b, reference_order(keys_b));
  EXPECT_EQ(starts_b, reference_starts(keys_b, 90));
  cmdp::counting_sort_index(pool, keys_a, 400, order_a, starts_a);
  EXPECT_EQ(order_a, reference_order(keys_a));
  // Releasing the arena must be harmless.
  pool.workspace().release();
  cmdp::counting_sort_index(pool, keys_a, 400, order_a, starts_a);
  EXPECT_EQ(order_a, reference_order(keys_a));
  EXPECT_EQ(starts_a, reference_starts(keys_a, 400));
}

// A stable sort's output is unique, so the cuts only decide which lane does
// the work: lanes left empty, every key in one lane, ragged cuts and the
// cuts sort_key_cuts picks all give the reference order and starts.
TEST(OneTableSort, AnyCutsGiveTheReferenceOrder) {
  cmdp::ThreadPool pool(4);
  const std::uint32_t bound = 3000;
  for (const bool near : {false, true}) {
    const auto keys = shaped_keys(near, 20000, bound, 41);
    std::vector<std::uint32_t> picked(5);
    cmdp::sort_key_cuts(keys, bound, 1, picked);
    const std::vector<std::vector<std::uint32_t>> cut_sets = {
        {0, 0, 0, bound, bound},           // lanes 0, 1 and 3 empty
        {0, bound, bound, bound, bound},   // every key in lane 0
        {0, 0, 0, 0, bound},               // every key in the last lane
        {0, 1, 2, bound - 1, bound},       // slivers and one wide lane
        {0, 17, 1500, 1501, bound},
        picked,
    };
    for (const auto& cuts : cut_sets) {
      const LaneSort got = sort_with_cuts(pool, keys, bound, cuts);
      expect_sorted_like_reference(
          got, keys, bound, cuts,
          "cuts " + std::to_string(cuts[1]) + "," + std::to_string(cuts[2]) +
              "," + std::to_string(cuts[3]) + ", near-sorted " +
              std::to_string(near));
    }
  }
}

// Fewer keys than lanes, no keys at all, and every key at the top of the
// key space.
TEST(OneTableSort, TinyAndTopHeavyInputs) {
  cmdp::ThreadPool pool(6);
  const std::uint32_t bound = 50;
  const std::vector<std::vector<std::uint32_t>> inputs = {
      {},
      {7, 3, 7},                            // n < lanes
      {bound - 1, 0, bound - 1, bound - 1},  // keys at key_bound - 1
      std::vector<std::uint32_t>(100, bound - 1),
  };
  for (const auto& keys : inputs) {
    std::vector<std::uint32_t> cuts(7);
    cmdp::sort_key_cuts(keys, bound, 1, cuts);
    const LaneSort got = sort_with_cuts(pool, keys, bound, cuts);
    expect_sorted_like_reference(got, keys, bound, cuts,
                                 "n=" + std::to_string(keys.size()));
    // The same inputs through the plan entry point (one lane below the
    // fork-join cutoff).
    const cmdp::SortPlan plan = cmdp::counting_sort_plan(pool, keys, bound);
    EXPECT_EQ(plan.key_starts[bound], keys.size());
    std::vector<std::uint32_t> order(keys.size());
    cmdp::apply_sort_plan(pool, keys, plan,
                          [&](std::size_t src, std::size_t dst) {
                            order[dst] = static_cast<std::uint32_t>(src);
                          });
    EXPECT_EQ(order, reference_order(keys));
  }
}

// The cuts ascend, bracket [0, key_bound), fall on multiples of the
// alignment, and split near-sorted keys into near-equal lanes.
TEST(OneTableSort, CutsAreAlignedAndBalanceNearSortedKeys) {
  const std::size_t n = 60000;
  const std::uint32_t bound = 8 * 6000;
  const auto keys = near_sorted_keys(n, bound, 51);
  const auto ref = reference_starts(keys, bound);
  for (unsigned lanes : {1u, 3u, 4u, 6u}) {
    std::vector<std::uint32_t> cuts(lanes + 1);
    cmdp::sort_key_cuts(keys, bound, 8, cuts);
    EXPECT_EQ(cuts.front(), 0u);
    EXPECT_EQ(cuts.back(), bound);
    EXPECT_TRUE(std::is_sorted(cuts.begin(), cuts.end()));
    for (unsigned t = 0; t < lanes; ++t) {
      EXPECT_EQ(cuts[t] % 8, 0u);
      const double share =
          static_cast<double>(ref[cuts[t + 1]] - ref[cuts[t]]) /
          static_cast<double>(n);
      EXPECT_NEAR(share, 1.0 / lanes, 0.02) << lanes << " lanes, lane " << t;
    }
  }
}

// The plan keeps the pool's lanes for keys in the simulation's near-sorted
// shape and sorts on one lane where every lane would scan nearly every
// block: uniform keys, or every key inside one lane's range.
TEST(OneTableSort, LanesFollowTheKeyOrder) {
  const std::size_t n = 40000;
  const std::uint32_t bound = 8 * 3000;
  const auto near = near_sorted_keys(n, bound, 71);
  const auto uniform = random_keys(n, bound, 72);
  const std::vector<std::uint32_t> same(n, 123);
  for (unsigned threads : {2u, 3u, 4u, 6u}) {
    cmdp::ThreadPool pool(threads);
    EXPECT_EQ(cmdp::counting_sort_plan(pool, near, bound).lanes, threads);
    EXPECT_EQ(cmdp::counting_sort_plan(pool, uniform, bound).lanes, 1u);
    EXPECT_EQ(cmdp::counting_sort_plan(pool, same, bound).lanes, 1u);
  }
}
