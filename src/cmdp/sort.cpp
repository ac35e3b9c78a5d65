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

void sort_key_cuts(std::span<const std::uint32_t> keys,
                   std::uint32_t key_bound, std::uint32_t align,
                   std::span<std::uint32_t> cuts) {
  const auto lanes = static_cast<unsigned>(cuts.size() - 1);
  const std::size_t n = keys.size();
  cuts[0] = 0;
  cuts[lanes] = key_bound;
  for (unsigned t = 1; t < lanes; ++t) {
    std::uint32_t cut = 0;
    if (n > 0) {
      // Median of three around the boundary: one particle that just left
      // its cell (or the flow) does not drag a whole lane's range with it.
      const std::size_t i = std::min(lane_range(n, t, lanes).begin, n - 1);
      const std::uint32_t a = keys[i > 0 ? i - 1 : i];
      const std::uint32_t b = keys[i];
      const std::uint32_t c = keys[i + 1 < n ? i + 1 : i];
      cut = std::max(std::min(a, b), std::min(std::max(a, b), c));
    }
    cuts[t] = cut - cut % align;
  }
  std::sort(cuts.begin() + 1, cuts.end() - 1);
}

namespace {

// Whether no lane cut by `cuts` scans more than 3/4 of the probe blocks (a
// lane scans each block holding any of its keys).  Keys in the previous
// step's order leave a lane its own ~1/lanes plus the blocks its few far
// outliers land in; a store that is never reordered puts every lane's keys
// in nearly every block.
bool lanes_pay_off(std::span<const std::uint32_t> keys,
                   std::span<const std::uint32_t> cuts) {
  const std::size_t n = keys.size();
  const std::size_t blocks = (n + kKeyBlock - 1) / kKeyBlock;
  const std::size_t probes = std::min(blocks, kProbeBlocks);
  for (std::size_t t = 0; t + 1 < cuts.size(); ++t) {
    std::size_t scanned = 0;
    for (std::size_t j = 0; j < probes; ++j) {
      const std::size_t b = j * blocks / probes * kKeyBlock;
      const std::size_t len = std::min(kKeyBlock, n - b);
      if (keys_in_range(keys.data() + b, len, cuts[t], cuts[t + 1]) != 0)
        ++scanned;
    }
    if (4 * scanned > 3 * probes) return false;
  }
  return true;
}

}  // namespace

SortPlan lay_out_sort(ThreadPool& pool, std::span<const std::uint32_t> keys,
                      std::uint32_t key_bound, std::uint32_t align) {
  assert(key_bound >= 1 && align >= 1);
  SortPlan plan;
  plan.n = keys.size();
  plan.key_bound = key_bound;
  plan.lanes = pool.size() == 1 || plan.n < kSerialCutoff ? 1 : pool.size();
  Workspace& ws = pool.workspace();
  std::uint32_t* const cuts = grown(ws.sort_cuts, plan.lanes + std::size_t{1});
  sort_key_cuts(keys, key_bound, align, {cuts, plan.lanes + std::size_t{1}});
  if (plan.lanes > 1 &&
      !lanes_pay_off(keys, {cuts, plan.lanes + std::size_t{1}})) {
    plan.lanes = 1;
    cuts[1] = key_bound;
  }
  plan.cuts = {cuts, plan.lanes + std::size_t{1}};
  plan.key_starts = {grown(ws.sort_starts, key_bound + std::size_t{1}),
                     key_bound + std::size_t{1}};
  return plan;
}

SortPlan counting_sort_plan(ThreadPool& pool,
                            std::span<const std::uint32_t> keys,
                            std::uint32_t key_bound) {
  const SortPlan plan = lay_out_sort(pool, keys, key_bound, 1);
  for_each_sort_lane(pool, plan.lanes, [&](unsigned t) {
    count_key_range(keys, plan.cuts[t], plan.cuts[t + 1],
                    plan.key_starts.data());
  });
  plan.key_starts[key_bound] = static_cast<std::uint32_t>(plan.n);
  return plan;
}

void count_quantile_cuts(std::span<const std::uint32_t> starts, std::size_t n,
                         std::span<std::uint32_t> cuts) {
  const std::size_t lanes = cuts.size() - 1;
  cuts[0] = 0;
  cuts[lanes] = static_cast<std::uint32_t>(starts.size());
  for (std::size_t t = 1; t < lanes; ++t) {
    const auto target = static_cast<std::uint32_t>(t * n / lanes);
    cuts[t] = static_cast<std::uint32_t>(
        std::lower_bound(starts.begin(), starts.end(), target) -
        starts.begin());
  }
}

double cut_imbalance(std::span<const std::uint32_t> starts, std::size_t n,
                     std::span<const std::uint32_t> cuts) {
  if (n == 0 || cuts.size() < 2) return 1.0;
  const std::size_t lanes = cuts.size() - 1;
  auto start = [&](std::uint32_t c) {
    return c < starts.size() ? std::size_t{starts[c]} : n;
  };
  std::size_t busiest = 0;
  for (std::size_t t = 0; t < lanes; ++t)
    busiest = std::max(busiest, start(cuts[t + 1]) - start(cuts[t]));
  return static_cast<double>(busiest) * static_cast<double>(lanes) /
         static_cast<double>(n);
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
  apply_sort_plan(pool, keys, plan, [&](std::size_t src, std::size_t dst) {
    order[dst] = static_cast<std::uint32_t>(src);
  });
}

}  // namespace cmdsmc::cmdp
