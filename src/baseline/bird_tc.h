// Bird's time-counter collision scheme (Bird 1976; the method the paper
// argues against for fine-grained parallel machines).
//
// Collisions are organised per *cell*: each cell keeps an asynchronous time
// counter; random pairs inside the cell are collided, each collision
// advancing the counter by 2 / (N_c * nu), until the counter passes the
// global simulation time.  Parallelism is only available at the cell level,
// so the work per step is bounded by the most populated cell — the load
// imbalance the paper's particles-to-processors mapping eliminates.
//
// Each step finds every cell's particles with one stable counting sort of
// their cell indices (cmdp::counting_sort_index): the order lists the
// particles cell by cell, and the sort's starts table gives each cell's
// first position and, by difference, its count.  The store itself is
// never reordered.
//
// To isolate the *selection* scheme difference, the actual two-body collision
// uses the same Baganoff 5-vector kernel as the main code.
#pragma once

#include <cstdint>
#include <vector>

#include "cmdp/thread_pool.h"
#include "core/particles.h"
#include "geom/grid.h"

namespace cmdsmc::baseline {

struct BaselineConfig {
  // Per-particle collision frequency at freestream density, per time step —
  // calibrated identically to the main scheme's P∞ so the comparison is
  // apples-to-apples (Maxwell molecules: frequency independent of g).
  double pc_inf = 0.5;
  double n_inf = 16.0;  // freestream particles per cell
  std::uint64_t seed = 1;
};

class BirdTimeCounter {
 public:
  BirdTimeCounter(const geom::Grid& grid, const BaselineConfig& cfg);

  // Performs the collision sub-step for one global time step.  Particles
  // must carry valid cell indices (< grid.ncells()).  Cell-level parallel.
  void collision_step(cmdp::ThreadPool& pool,
                      core::ParticleStore<double>& store);

  std::uint64_t collisions() const { return collisions_; }
  std::int64_t step_index() const { return step_; }

 private:
  geom::Grid grid_;
  BaselineConfig cfg_;
  std::vector<double> cell_time_;  // asynchronous cell clocks
  std::int64_t step_ = 0;
  std::uint64_t collisions_ = 0;
  // The sort's output: particles in cell order, and each cell's first
  // position in it (ncells + 1 entries; a cell's count is the difference of
  // neighbouring starts).
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> starts_;
};

}  // namespace cmdsmc::baseline
