// Cell-block domain sharding: how the per-cell phases (collide, sample) split
// the pairing cells across lanes.
//
// The domain is cut into contiguous runs of pairing cells in sort-key order
// ("shards"), so after the counting sort each shard is a contiguous run of
// the particle arrays.  A prefix scan over a per-cell cost model places the
// shard boundaries at cost quantiles; a greedy longest-processing-time pass
// assigns shards to lanes.  Hypersonic runs concentrate particles in the
// shock layer, so equal-cell (or equal-index) partitions leave lanes idle —
// the MPI-era cure (Binder et al., space-filling-curve cost partitioning)
// collapses here to a scan over the per-cell counts the sort plan already
// produces.
//
// The plan carries no physics: which lane executes a cell block changes
// neither the RNG streams (keyed by particle index and step) nor any write
// (per-cell work is disjoint), so any assignment is bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cmdp/thread_pool.h"

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
  std::vector<double> shard_cost;         // per-shard cost, last evaluation
  unsigned lanes = 0;
  // Predicted max-lane / mean-lane cost of the assignment at build time
  // (1.0 = perfectly balanced).
  double imbalance = 1.0;

  std::size_t count() const { return bounds.empty() ? 0 : bounds.size() - 1; }
  bool active() const { return lanes > 1 && count() > 0; }
  void clear() {
    bounds.clear();
    order.clear();
    lane_begin.clear();
    shard_cost.clear();
    lanes = 0;
    imbalance = 1.0;
  }
};

// Builds `nshards` contiguous shards over cost[0..ncells) with boundaries at
// cost quantiles (prefix scan + lower_bound), then assigns them to `lanes`
// lanes greedily: heaviest shard first into the least-loaded lane, ties to
// the lowest lane.  Deterministic: identical costs give an identical plan.
// nshards is clamped to [1, ncells]; an all-zero cost falls back to an
// equal-cell split.
ShardPlan build_shard_plan(const std::vector<double>& cost, unsigned nshards,
                           unsigned lanes);

// Re-evaluates an existing plan's assignment under fresh per-cell costs
// without moving any boundary: refreshes plan.shard_cost and returns the
// predicted max/mean lane-cost imbalance (the repartition trigger input).
double shard_plan_imbalance(ShardPlan& plan, const std::vector<double>& cost);

// The cell-block dispatch: every lane walks its assigned shards, invoking
// fn(cell_begin, cell_end) once per non-empty shard.  A plan that cannot
// execute on this pool (inactive — one lane — or built for another lane
// count) runs fn(0, ncells) once on the calling thread instead.
template <class Fn>
void parallel_shards(ThreadPool& pool, const ShardPlan& plan,
                     std::uint32_t ncells, Fn&& fn) {
  if (!plan.active() || plan.lanes != pool.size()) {
    fn(std::uint32_t{0}, ncells);
    return;
  }
  pool.parallel([&](unsigned tid) {
    for (std::uint32_t k = plan.lane_begin[tid]; k < plan.lane_begin[tid + 1];
         ++k) {
      const std::uint32_t s = plan.order[k];
      if (plan.bounds[s] < plan.bounds[s + 1])
        fn(plan.bounds[s], plan.bounds[s + 1]);
    }
  });
}

}  // namespace cmdsmc::cmdp
