#include "cmdp/sort.h"

#include <algorithm>
#include <cassert>

#include "cmdp/parallel.h"
#include "cmdp/workspace.h"

namespace cmdsmc::cmdp {

std::uint32_t count_key_range(std::span<const std::uint32_t> keys,
                              std::uint32_t lo, std::uint32_t hi,
                              std::uint32_t* starts) {
  std::fill(starts + lo, starts + hi, 0u);
  const std::uint32_t* const k = keys.data();
  std::size_t below = 0;
  for_each_key_block(keys.size(), [&](std::size_t b, std::size_t len) {
    below += keys_in_range(k + b, len, 0, lo);
    const std::size_t in = keys_in_range(k + b, len, lo, hi);
    if (in == len) {
      for (std::size_t i = b; i < b + len; ++i) ++starts[k[i]];
    } else if (in != 0) {
      for (std::size_t i = b; i < b + len; ++i)
        if (k[i] - lo < hi - lo) ++starts[k[i]];
    }
  });
  // Exclusive prefix over the lane's slice, offset by the keys below it.
  auto at = static_cast<std::uint32_t>(below);
  for (std::uint32_t key = lo; key < hi; ++key) {
    const std::uint32_t c = starts[key];
    starts[key] = at;
    at += c;
  }
  return at;
}

SortPlan counting_sort_plan(ThreadPool& pool,
                            std::span<const std::uint32_t> keys,
                            std::uint32_t key_bound,
                            std::span<const std::uint32_t> cuts) {
  assert(key_bound >= 1);
  SortPlan plan;
  plan.n = keys.size();
  plan.key_bound = key_bound;
  Workspace& ws = pool.workspace();
  if (cuts.size() == pool.size() + std::size_t{1} &&
      plan.n >= kSerialCutoff) {
    assert(cuts.front() == 0 && cuts.back() == key_bound);
    plan.lanes = pool.size();
    plan.cuts = cuts;
  } else {
    std::uint32_t* const whole = grown(ws.sort_cuts, 2);
    whole[0] = 0;
    whole[1] = key_bound;
    plan.cuts = {whole, 2};
  }
  plan.key_starts = {grown(ws.sort_starts, key_bound + std::size_t{1}),
                     key_bound + std::size_t{1}};
  for_each_sort_lane(pool, plan.lanes, [&](unsigned t) {
    count_key_range(keys, plan.cuts[t], plan.cuts[t + 1],
                    plan.key_starts.data());
  });
  plan.key_starts[key_bound] = static_cast<std::uint32_t>(plan.n);
  return plan;
}

void count_quantile_cuts(std::span<const std::uint32_t> starts,
                         std::span<std::uint32_t> cuts) {
  const std::size_t lanes = cuts.size() - 1;
  const std::size_t n = starts.back();
  cuts[0] = 0;
  cuts[lanes] = static_cast<std::uint32_t>(starts.size() - 1);
  // The sentinel n reaches every quantile, so the search never runs off the
  // table.
  for (std::size_t t = 1; t < lanes; ++t) {
    const auto target = static_cast<std::uint32_t>(t * n / lanes);
    cuts[t] = static_cast<std::uint32_t>(
        std::lower_bound(starts.begin(), starts.end(), target) -
        starts.begin());
  }
}

void cut_partition(const ThreadPool& pool,
                   std::span<const std::uint32_t> starts,
                   std::vector<std::uint32_t>& cuts) {
  cuts.resize((starts.back() < kSerialCutoff ? 1 : pool.size()) +
              std::size_t{1});
  count_quantile_cuts(starts, cuts);
}

double cut_imbalance(std::span<const std::uint32_t> starts,
                     std::span<const std::uint32_t> cuts) {
  if (cuts.size() < 2 || starts.empty() || starts.back() == 0) return 1.0;
  const std::size_t lanes = cuts.size() - 1;
  std::size_t busiest = 0;
  for (std::size_t t = 0; t < lanes; ++t)
    busiest = std::max<std::size_t>(busiest,
                                    starts[cuts[t + 1]] - starts[cuts[t]]);
  return static_cast<double>(busiest) * static_cast<double>(lanes) /
         static_cast<double>(starts.back());
}

void counting_sort_index(ThreadPool& pool, std::span<const std::uint32_t> keys,
                         std::uint32_t key_bound,
                         std::span<std::uint32_t> order,
                         std::span<std::uint32_t> starts) {
  assert(order.size() == keys.size());
  assert(starts.size() == key_bound + std::size_t{1});
  const SortPlan plan = counting_sort_plan(pool, keys, key_bound);
  // The scatter consumes the plan's table as its cursors: copy it first.
  std::copy(plan.key_starts.begin(), plan.key_starts.end(), starts.begin());
  scatter_index_range(keys, 0, key_bound, plan.key_starts.data(),
                      order.data());
}

}  // namespace cmdsmc::cmdp
