// A cost-priced cell-block plan: contiguous runs of pairing cells
// ("shards") with boundaries at quantiles of a per-cell cost, assigned to
// lanes greedily.  The step does not use it (collide and sample walk the
// count-quantile blocks of cmdp::count_quantile_cuts); only the benchmark
// suite's `cmdp.shard_build_us` probe reads it, until the benchmark change
// deletes it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cmdsmc::cmdp {

struct ShardPlan {
  // Shard s covers pairing cells [bounds[s], bounds[s+1]).  Monotone
  // non-decreasing; a shard may be empty when one hot cell spans several
  // cost quantiles (a single cell never splits).
  std::vector<std::uint32_t> bounds;
  // Shard ids grouped by owning lane: lane t executes
  // order[lane_begin[t] .. lane_begin[t+1]).
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> lane_begin;  // lanes + 1 offsets into order
  std::vector<double> shard_cost;         // per-shard cost
  unsigned lanes = 0;
  // Predicted max-lane / mean-lane cost of the assignment at build time
  // (1.0 = perfectly balanced).
  double imbalance = 1.0;

  std::size_t count() const { return bounds.empty() ? 0 : bounds.size() - 1; }
};

// Builds `nshards` contiguous shards over cost[0..ncells) with boundaries at
// cost quantiles (prefix scan + lower_bound), then assigns them to `lanes`
// lanes greedily: heaviest shard first into the least-loaded lane, ties to
// the lowest lane.  Deterministic: identical costs give an identical plan.
// nshards is clamped to [1, ncells]; an all-zero cost falls back to an
// equal-cell split.
ShardPlan build_shard_plan(const std::vector<double>& cost, unsigned nshards,
                           unsigned lanes);

}  // namespace cmdsmc::cmdp
