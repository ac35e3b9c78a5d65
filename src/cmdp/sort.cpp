#include "cmdp/sort.h"

#include <algorithm>
#include <cassert>

#include "cmdp/workspace.h"

namespace cmdsmc::cmdp {

void histogram(ThreadPool& pool, std::span<const std::uint32_t> keys,
               std::uint32_t key_bound, std::span<std::uint32_t> counts) {
  assert(counts.size() >= key_bound);
  std::fill(counts.begin(), counts.begin() + key_bound, 0u);
  const std::size_t n = keys.size();
  if (pool.size() == 1 || n < kSerialCutoff) {
    for (std::size_t i = 0; i < n; ++i) ++counts[keys[i]];
    return;
  }
  const unsigned lanes = pool.size();
  std::uint32_t* local = grown(pool.workspace().hist_lanes,
                               static_cast<std::size_t>(lanes) * key_bound);
  pool.parallel([&](unsigned tid) {
    std::uint32_t* h = local + static_cast<std::size_t>(tid) * key_bound;
    std::fill(h, h + key_bound, 0u);
    const Range r = lane_range(n, tid, lanes);
    for (std::size_t i = r.begin; i < r.end; ++i) ++h[keys[i]];
  });
  parallel_for(pool, key_bound, [&](std::size_t k) {
    std::uint32_t total = 0;
    for (unsigned t = 0; t < lanes; ++t)
      total += local[static_cast<std::size_t>(t) * key_bound + k];
    counts[k] = total;
  });
}

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
  for_each_sort_lane(pool, plan, [&](unsigned t) {
    count_key_range(keys, plan.cuts[t], plan.cuts[t + 1],
                    plan.key_starts.data());
  });
  plan.key_starts[key_bound] = static_cast<std::uint32_t>(plan.n);
  return plan;
}

void counting_sort_index(ThreadPool& pool, std::span<const std::uint32_t> keys,
                         std::uint32_t key_bound,
                         std::span<std::uint32_t> order) {
  assert(order.size() == keys.size());
  const SortPlan plan = counting_sort_plan(pool, keys, key_bound);
  apply_sort_plan(pool, keys, plan, [&](std::size_t src, std::size_t dst) {
    order[dst] = static_cast<std::uint32_t>(src);
  });
}

void stable_sort_index(ThreadPool& pool, std::span<const std::uint32_t> keys,
                       std::uint32_t key_bound,
                       std::span<std::uint32_t> order) {
  const std::size_t n = keys.size();
  if (key_bound <= kDirectSortBound) {
    counting_sort_index(pool, keys, key_bound, order);
    return;
  }
  // Two-pass LSD radix over 16-bit digits (workspace-backed scratch).
  Workspace& ws = pool.workspace();
  std::span<std::uint32_t> low(grown(ws.radix_low, n), n);
  std::span<std::uint32_t> order1(grown(ws.radix_order1, n), n);
  std::span<std::uint32_t> high_sorted(grown(ws.radix_high, n), n);
  std::span<std::uint32_t> order2(grown(ws.radix_order2, n), n);
  parallel_for(pool, n, [&](std::size_t i) { low[i] = keys[i] & 0xffffu; });
  counting_sort_index(pool, low, 1u << 16, order1);
  parallel_for(pool, n,
               [&](std::size_t i) { high_sorted[i] = keys[order1[i]] >> 16; });
  const auto high_bound = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(1u << 16, ((std::uint64_t)key_bound >> 16) + 1));
  counting_sort_index(pool, high_sorted, high_bound, order2);
  parallel_for(pool, n, [&](std::size_t i) { order[i] = order1[order2[i]]; });
}

bool is_permutation_of_iota(std::span<const std::uint32_t> order) {
  std::vector<std::uint8_t> seen(order.size(), 0);
  for (std::uint32_t v : order) {
    if (v >= order.size() || seen[v]) return false;
    seen[v] = 1;
  }
  return true;
}

}  // namespace cmdsmc::cmdp
