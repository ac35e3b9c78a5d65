#include "cmdp/shard.h"

#include <algorithm>
#include <numeric>

namespace cmdsmc::cmdp {

namespace {

// Greedy LPT shard -> lane assignment over plan.shard_cost; fills
// plan.order / plan.lane_begin and returns the predicted max/mean lane-cost
// imbalance.
double assign_lanes(ShardPlan& plan) {
  const std::size_t nshards = plan.count();
  const unsigned lanes = plan.lanes;
  std::vector<std::uint32_t> by_cost(nshards);
  std::iota(by_cost.begin(), by_cost.end(), 0u);
  // Heaviest first; stable so equal costs keep shard order (determinism).
  std::stable_sort(by_cost.begin(), by_cost.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return plan.shard_cost[a] > plan.shard_cost[b];
                   });
  std::vector<double> load(lanes, 0.0);
  std::vector<std::uint32_t> lane_of(nshards, 0);
  for (const std::uint32_t s : by_cost) {
    unsigned best = 0;
    for (unsigned t = 1; t < lanes; ++t)
      if (load[t] < load[best]) best = t;
    lane_of[s] = best;
    load[best] += plan.shard_cost[s];
  }
  // Bucket shard ids by lane, keeping ascending shard order within a lane
  // (contiguous-ish walks help locality).
  plan.lane_begin.assign(lanes + 1, 0);
  for (std::size_t s = 0; s < nshards; ++s) ++plan.lane_begin[lane_of[s] + 1];
  for (unsigned t = 0; t < lanes; ++t)
    plan.lane_begin[t + 1] += plan.lane_begin[t];
  plan.order.resize(nshards);
  std::vector<std::uint32_t> cur(plan.lane_begin.begin(),
                                 plan.lane_begin.end() - 1);
  for (std::size_t s = 0; s < nshards; ++s)
    plan.order[cur[lane_of[s]]++] = static_cast<std::uint32_t>(s);
  double max_load = 0.0;
  double sum = 0.0;
  for (const double l : load) {
    max_load = l > max_load ? l : max_load;
    sum += l;
  }
  return sum > 0.0 ? max_load * lanes / sum : 1.0;
}

}  // namespace

ShardPlan build_shard_plan(const std::vector<double>& cost, unsigned nshards,
                           unsigned lanes) {
  ShardPlan plan;
  plan.lanes = lanes;
  const std::size_t ncells = cost.size();
  if (ncells == 0 || lanes == 0) return plan;
  if (nshards < 1) nshards = 1;
  if (nshards > ncells) nshards = static_cast<unsigned>(ncells);
  std::vector<double> prefix(ncells + 1, 0.0);
  for (std::size_t c = 0; c < ncells; ++c) prefix[c + 1] = prefix[c] + cost[c];
  const double total = prefix[ncells];
  plan.bounds.assign(nshards + 1, 0);
  plan.bounds[nshards] = static_cast<std::uint32_t>(ncells);
  for (unsigned k = 1; k < nshards; ++k) {
    std::uint32_t b;
    if (total > 0.0) {
      const double target = total * k / nshards;
      b = static_cast<std::uint32_t>(
          std::lower_bound(prefix.begin() + 1, prefix.end(), target) -
          prefix.begin());
    } else {
      // No cost signal (empty domain this step): equal-cell split.
      b = static_cast<std::uint32_t>(ncells * k / nshards);
    }
    if (b < plan.bounds[k - 1]) b = plan.bounds[k - 1];
    if (b > ncells) b = static_cast<std::uint32_t>(ncells);
    plan.bounds[k] = b;
  }
  plan.shard_cost.resize(nshards);
  for (unsigned s = 0; s < nshards; ++s)
    plan.shard_cost[s] = prefix[plan.bounds[s + 1]] - prefix[plan.bounds[s]];
  plan.imbalance = assign_lanes(plan);
  return plan;
}

}  // namespace cmdsmc::cmdp
