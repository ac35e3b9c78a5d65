// Nanbu's collision scheme in the O(N) vectorizable form due to Ploss (the
// second comparator the paper discusses).
//
// Every particle independently decides, with the cell-density-scaled
// probability, whether it collides this step; if so it picks a random
// partner in its cell and updates *its own* velocity only.  This is
// particle-parallel (like the Baganoff rule) but conserves momentum and
// energy only in the mean — the deficiency the paper points out ("conserve
// only the mean energy and momentum of a cell and their extension to
// reacting flows is questionable").
//
// Partners are drawn through the same cell sort as Bird's scheme: one
// cmdp::counting_sort_index call gives the particles in cell order and each
// cell's start and count.
#pragma once

#include <cstdint>
#include <vector>

#include "cmdp/thread_pool.h"
#include "core/particles.h"
#include "geom/grid.h"

#include "baseline/bird_tc.h"  // BaselineConfig

namespace cmdsmc::baseline {

class NanbuScheme {
 public:
  NanbuScheme(const geom::Grid& grid, const BaselineConfig& cfg);

  // One collision sub-step.  Two-phase (decide+compute into scratch, then
  // commit) so the particle-parallel loop is race-free, as in a vectorized
  // implementation.
  void collision_step(cmdp::ThreadPool& pool,
                      core::ParticleStore<double>& store);

  std::uint64_t collisions() const { return collisions_; }

 private:
  geom::Grid grid_;
  BaselineConfig cfg_;
  std::int64_t step_ = 0;
  std::uint64_t collisions_ = 0;
  // The sort's output: particles in cell order, and each cell's first
  // position in it (ncells + 1 entries).
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> starts_;
  std::vector<double> new_v_[5];
  std::vector<std::uint8_t> hit_;
};

}  // namespace cmdsmc::baseline
