#include "baseline/bird_tc.h"

#include <atomic>
#include <cmath>

#include "cmdp/parallel.h"
#include "cmdp/sort.h"
#include "physics/collision.h"
#include "rng/rng.h"

namespace cmdsmc::baseline {

BirdTimeCounter::BirdTimeCounter(const geom::Grid& grid,
                                 const BaselineConfig& cfg)
    : grid_(grid),
      cfg_(cfg),
      cell_time_(static_cast<std::size_t>(grid.ncells()), 0.0) {}

void BirdTimeCounter::collision_step(cmdp::ThreadPool& pool,
                                     core::ParticleStore<double>& store) {
  const std::size_t n = store.size();
  const auto ncells = static_cast<std::uint32_t>(grid_.ncells());
  order_.resize(n);
  starts_.resize(ncells + std::size_t{1});
  cmdp::counting_sort_index(pool, store.cell, ncells, order_, starts_);

  const double t_end = static_cast<double>(step_ + 1);
  std::atomic<std::uint64_t> coll{0};
  // Cell-level parallelism: this is the scheme's intrinsic granularity.
  cmdp::parallel_for(pool, ncells, [&](std::size_t c) {
    const std::uint32_t s = starts_[c];
    const std::uint32_t cnt = starts_[c + 1] - s;
    if (cnt < 2) {
      cell_time_[c] = t_end;  // empty cells simply keep up with global time
      return;
    }
    // Per-particle collision frequency at this cell's density.
    const double nu = cfg_.pc_inf * static_cast<double>(cnt) / cfg_.n_inf;
    const double dt_coll = 2.0 / (static_cast<double>(cnt) * nu);
    rng::SplitMix64 g(rng::hash4(cfg_.seed, static_cast<std::uint64_t>(c),
                                 static_cast<std::uint64_t>(step_), 77));
    std::uint64_t local = 0;
    double t = cell_time_[c];
    while (t < t_end) {
      const std::uint32_t i = order_[s + g.next_below(cnt)];
      std::uint32_t j = i;
      while (j == i) j = order_[s + g.next_below(cnt)];
      physics::Pair5<double> pv;
      pv.a[0] = store.ux[i];
      pv.a[1] = store.uy[i];
      pv.a[2] = store.uz[i];
      pv.a[3] = store.r0[i];
      pv.a[4] = store.r1[i];
      pv.b[0] = store.ux[j];
      pv.b[1] = store.uy[j];
      pv.b[2] = store.uz[j];
      pv.b[3] = store.r0[j];
      pv.b[4] = store.r1[j];
      const rng::PackedPerm perm = rng::perm_table()[g.next_below(
          rng::kPermCount)];
      physics::collide_pair(pv, perm, g.next_u64());
      store.ux[i] = pv.a[0];
      store.uy[i] = pv.a[1];
      store.uz[i] = pv.a[2];
      store.r0[i] = pv.a[3];
      store.r1[i] = pv.a[4];
      store.ux[j] = pv.b[0];
      store.uy[j] = pv.b[1];
      store.uz[j] = pv.b[2];
      store.r0[j] = pv.b[3];
      store.r1[j] = pv.b[4];
      t += dt_coll;
      ++local;
    }
    cell_time_[c] = t;
    coll.fetch_add(local, std::memory_order_relaxed);
  });
  collisions_ += coll.load();
  ++step_;
}

}  // namespace cmdsmc::baseline
