#include "cmdp/sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <ostream>
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

// gtest lists a parameter by printing it, and names the test from that
// print (PrintToStringParamName).  Without this it dumps the struct's
// bytes, tail padding included, which change from run to run.
void PrintTo(const SortCase& c, std::ostream* os) {
  *os << "n" << c.n << "_bound" << c.bound;
}

class SortCases : public ::testing::TestWithParam<SortCase> {};

// A partition of [0, bound) into `lanes` key ranges: count-quantile cuts of
// the reference starts table, the blocks a caller's previous sort of these
// keys would hand the next one.
std::vector<std::uint32_t> quantile_cuts(const std::vector<std::uint32_t>& keys,
                                         std::uint32_t bound, unsigned lanes) {
  std::vector<std::uint32_t> cuts(lanes + 1);
  cmdp::count_quantile_cuts(reference_starts(keys, bound), cuts);
  return cuts;
}

// Every lane's index scatter under a counted plan, as scatter_sorted runs
// it: the stable order.
std::vector<std::uint32_t> index_by_plan(cmdp::ThreadPool& pool,
                                         const std::vector<std::uint32_t>& keys,
                                         const cmdp::SortPlan& plan) {
  std::vector<std::uint32_t> order(keys.size(), 0xdeadbeefu);
  cmdp::for_each_sort_lane(pool, plan.lanes, [&](unsigned t) {
    cmdp::scatter_index_range(keys, plan.cuts[t], plan.cuts[t + 1],
                              plan.key_starts.data(), order.data());
  });
  return order;
}

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

// The plan and index scatter on a partition, as PairwiseScheme sorts its
// store.
TEST_P(SortCases, StableSortMatchesStableReference) {
  const auto [n, bound] = GetParam();
  cmdp::ThreadPool pool(6);
  const auto keys = random_keys(n, bound, 2000 + n);
  const auto cuts = quantile_cuts(keys, bound, pool.size());
  const cmdp::SortPlan plan = cmdp::counting_sort_plan(pool, keys, bound, cuts);
  EXPECT_EQ(plan.lanes, n < cmdp::kSerialCutoff ? 1u : pool.size());
  EXPECT_EQ(index_by_plan(pool, keys, plan), reference_order(keys));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SortCases,
    ::testing::Values(SortCase{0, 16}, SortCase{1, 16}, SortCase{100, 4},
                      SortCase{5000, 1}, SortCase{10000, 65536},
                      SortCase{100000, 50000}, SortCase{200000, 7}),
    ::testing::PrintToStringParamName());

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
  std::vector<cmdp::Range> slices;    // per lane, scatter_index_range's
};

// Runs the lane routines themselves under explicit cuts (one lane per pool
// lane): every lane's count pass, then every lane's index scatter.
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
  out.slices.assign(pool.size(), cmdp::Range{});
  pool.parallel([&](unsigned t) {
    out.slices[t] = cmdp::scatter_index_range(keys, cuts[t], cuts[t + 1],
                                              table.data(), out.order.data());
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
  for (std::size_t t = 0; t < got.ends.size(); ++t) {
    EXPECT_EQ(got.ends[t], ref[cuts[t + 1]]) << what << " lane " << t;
    // A lane's slice is the output its keys fill; an empty range has none.
    const bool empty = cuts[t] == cuts[t + 1];
    EXPECT_EQ(got.slices[t].begin, empty ? 0 : ref[cuts[t]])
        << what << " lane " << t;
    EXPECT_EQ(got.slices[t].end, empty ? 0 : ref[cuts[t + 1]])
        << what << " lane " << t;
  }
}

}  // namespace

TEST(SortPlan, KeyStartsMatchReference) {
  for (unsigned threads : {1u, 3u, 4u, 6u}) {
    cmdp::ThreadPool pool(threads);
    for (const bool near : {false, true}) {
      const std::uint32_t bound = near ? 40000 : 777;
      const auto keys = shaped_keys(near, 60000, bound, 11);
      const auto cuts = quantile_cuts(keys, bound, threads);
      const cmdp::SortPlan plan =
          cmdp::counting_sort_plan(pool, keys, bound, cuts);
      EXPECT_EQ(plan.n, keys.size());
      EXPECT_EQ(plan.key_bound, bound);
      EXPECT_EQ(plan.lanes, threads);
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
      const auto cuts = quantile_cuts(keys, bound, threads);
      const cmdp::SortPlan plan =
          cmdp::counting_sort_plan(pool, keys, bound, cuts);
      EXPECT_EQ(plan.lanes, threads);
      EXPECT_EQ(index_by_plan(pool, keys, plan), reference_order(keys))
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
// the work: lanes left empty, every key in one lane, ragged cuts and
// count-quantile cuts all give the reference order and starts, through the
// lane routines and through a plan on those cuts.
TEST(OneTableSort, AnyCutsGiveTheReferenceOrder) {
  cmdp::ThreadPool pool(4);
  const std::uint32_t bound = 3000;
  for (const bool near : {false, true}) {
    const auto keys = shaped_keys(near, 20000, bound, 41);
    const std::vector<std::vector<std::uint32_t>> cut_sets = {
        {0, 0, 0, bound, bound},           // lanes 0, 1 and 3 empty
        {0, bound, bound, bound, bound},   // every key in lane 0
        {0, 0, 0, 0, bound},               // every key in the last lane
        {0, 1, 2, bound - 1, bound},       // slivers and one wide lane
        {0, 17, 1500, 1501, bound},
        quantile_cuts(keys, bound, 4),
    };
    for (const auto& cuts : cut_sets) {
      const std::string what =
          "cuts " + std::to_string(cuts[1]) + "," + std::to_string(cuts[2]) +
          "," + std::to_string(cuts[3]) + ", near-sorted " +
          std::to_string(near);
      const LaneSort got = sort_with_cuts(pool, keys, bound, cuts);
      expect_sorted_like_reference(got, keys, bound, cuts, what);
      const cmdp::SortPlan plan =
          cmdp::counting_sort_plan(pool, keys, bound, cuts);
      EXPECT_EQ(plan.lanes, 4u) << what;
      EXPECT_EQ(index_by_plan(pool, keys, plan), reference_order(keys))
          << what;
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
    const auto cuts = quantile_cuts(keys, bound, 6);
    const LaneSort got = sort_with_cuts(pool, keys, bound, cuts);
    expect_sorted_like_reference(got, keys, bound, cuts,
                                 "n=" + std::to_string(keys.size()));
    // The same inputs through the plan entry point on the same cuts: one
    // lane below the fork-join cutoff.
    const cmdp::SortPlan plan =
        cmdp::counting_sort_plan(pool, keys, bound, cuts);
    EXPECT_EQ(plan.lanes, 1u);
    EXPECT_EQ(plan.key_starts[bound], keys.size());
    EXPECT_EQ(index_by_plan(pool, keys, plan), reference_order(keys));
  }
}

// A plan runs the pool's lanes on its caller's partition and one lane
// without one, whatever order the keys come in; a partition cut for
// another pool's lane count, or fewer keys than the fork-join cutoff, also
// get one lane.  Every plan sorts like the reference.
TEST(SortPlan, LanesFollowTheCallersPartition) {
  const std::uint32_t bound = 8 * 3000;
  const auto near = near_sorted_keys(40000, bound, 71);
  const auto uniform = random_keys(40000, bound, 72);
  const auto few = near_sorted_keys(cmdp::kSerialCutoff - 1, bound, 73);
  for (unsigned threads : {2u, 3u, 4u, 6u}) {
    cmdp::ThreadPool pool(threads);
    for (const auto* keys : {&near, &uniform, &few}) {
      const std::string what = std::to_string(threads) + " threads, " +
                               std::to_string(keys->size()) + " keys";
      auto expect_lanes = [&](std::span<const std::uint32_t> cuts,
                              unsigned lanes) {
        const cmdp::SortPlan plan =
            cmdp::counting_sort_plan(pool, *keys, bound, cuts);
        EXPECT_EQ(plan.lanes, lanes) << what << ", " << cuts.size() << " cuts";
        EXPECT_EQ(index_by_plan(pool, *keys, plan), reference_order(*keys))
            << what << ", " << cuts.size() << " cuts";
      };
      const bool enough = keys->size() >= cmdp::kSerialCutoff;
      expect_lanes(quantile_cuts(*keys, bound, threads),
                   enough ? threads : 1u);
      expect_lanes({}, 1u);
      expect_lanes(quantile_cuts(*keys, bound, threads + 1), 1u);
    }
  }
}
