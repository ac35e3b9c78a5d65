#include "baseline/nanbu.h"

#include <atomic>

#include "cmdp/parallel.h"
#include "cmdp/sort.h"
#include "physics/collision.h"
#include "rng/rng.h"

namespace cmdsmc::baseline {

NanbuScheme::NanbuScheme(const geom::Grid& grid, const BaselineConfig& cfg)
    : grid_(grid), cfg_(cfg) {}

void NanbuScheme::collision_step(cmdp::ThreadPool& pool,
                                 core::ParticleStore<double>& store) {
  const std::size_t n = store.size();
  const auto ncells = static_cast<std::uint32_t>(grid_.ncells());
  order_.resize(n);
  starts_.resize(ncells + std::size_t{1});
  cmdp::counting_sort_index(pool, store.cell, ncells, order_, starts_);

  for (auto& v : new_v_) v.resize(n);
  hit_.resize(n);

  std::atomic<std::uint64_t> coll{0};
  // Phase 1: every particle draws its decision and computes its (one-sided)
  // post-collision velocity from a snapshot of the old state.
  cmdp::parallel_chunks(pool, n, [&](cmdp::Range r, unsigned) {
    std::uint64_t local = 0;
    for (std::size_t i = r.begin; i < r.end; ++i) {
      hit_[i] = 0;
      const std::uint32_t c = store.cell[i];
      const std::uint32_t s = starts_[c];
      const std::uint32_t cnt = starts_[c + 1] - s;
      if (cnt < 2) continue;
      rng::SplitMix64 g(rng::hash4(cfg_.seed, i,
                                   static_cast<std::uint64_t>(step_), 78));
      const double p = cfg_.pc_inf * static_cast<double>(cnt) / cfg_.n_inf;
      if (g.next_double() >= p) continue;
      const auto self = static_cast<std::uint32_t>(i);
      std::uint32_t j = self;
      for (int tries = 0; tries < 8 && j == self; ++tries)
        j = order_[s + g.next_below(cnt)];
      if (j == self) continue;
      double a[physics::kDof] = {store.ux[i], store.uy[i], store.uz[i],
                                 store.r0[i], store.r1[i]};
      const double b[physics::kDof] = {store.ux[j], store.uy[j], store.uz[j],
                                       store.r0[j], store.r1[j]};
      const rng::PackedPerm perm =
          rng::perm_table()[g.next_below(rng::kPermCount)];
      physics::collide_one_sided(a, b, perm, g.next_u64());
      for (int c5 = 0; c5 < physics::kDof; ++c5) new_v_[c5][i] = a[c5];
      hit_[i] = 1;
      ++local;
    }
    coll.fetch_add(local, std::memory_order_relaxed);
  });
  // Phase 2: commit.
  cmdp::parallel_for(pool, n, [&](std::size_t i) {
    if (!hit_[i]) return;
    store.ux[i] = new_v_[0][i];
    store.uy[i] = new_v_[1][i];
    store.uz[i] = new_v_[2][i];
    store.r0[i] = new_v_[3][i];
    store.r1[i] = new_v_[4][i];
  });
  collisions_ += coll.load();
  ++step_;
}

}  // namespace cmdsmc::baseline
