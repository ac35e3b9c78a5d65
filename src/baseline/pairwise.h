// The McDonald–Baganoff pairwise scheme as a standalone collision operator
// (sort by randomized cell key, even/odd pairing, pair-local selection,
// 5-vector collision) — the same algorithm the Simulation driver embeds,
// packaged like the Bird/Nanbu baselines so the three selection schemes can
// be compared on identical workloads.  It sorts like the driver too: a
// counting_sort_plan over the randomized keys, each cell's start read from
// the plan's key table, then ParticleStore::scatter_sorted: the simulation's
// index scatter and gathers (core::SortedGather).
#pragma once

#include <cstdint>
#include <vector>

#include "baseline/bird_tc.h"  // BaselineConfig
#include "cmdp/thread_pool.h"
#include "core/particles.h"
#include "geom/grid.h"

namespace cmdsmc::baseline {

class PairwiseScheme {
 public:
  PairwiseScheme(const geom::Grid& grid, const BaselineConfig& cfg);

  // One collision sub-step (particle-parallel).
  void collision_step(cmdp::ThreadPool& pool,
                      core::ParticleStore<double>& store);

  std::uint64_t collisions() const { return collisions_; }

 private:
  geom::Grid grid_;
  BaselineConfig cfg_;
  std::int64_t step_ = 0;
  std::uint64_t collisions_ = 0;
  // Lends scatter_sorted its spares, one array per element type.
  core::ParticleStore<double> scratch_;
  std::vector<std::uint32_t> keys_;
  // Each cell's first position after the sort (ncells + 1 entries).
  std::vector<std::uint32_t> starts_;
};

}  // namespace cmdsmc::baseline
