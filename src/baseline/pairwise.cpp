#include "baseline/pairwise.h"

#include <atomic>

#include "cmdp/parallel.h"
#include "cmdp/sort.h"
#include "physics/collision.h"
#include "rng/permutation.h"
#include "rng/rng.h"

namespace cmdsmc::baseline {

namespace {
constexpr std::uint32_t kSortScale = 8;
}

PairwiseScheme::PairwiseScheme(const geom::Grid& grid,
                               const BaselineConfig& cfg)
    : grid_(grid), cfg_(cfg) {}

void PairwiseScheme::collision_step(cmdp::ThreadPool& pool,
                                    core::ParticleStore<double>& store) {
  const std::size_t n = store.size();
  const auto ncells = static_cast<std::uint32_t>(grid_.ncells());
  keys_.resize(n);
  starts_.resize(ncells + std::size_t{1});
  cmdp::parallel_for(pool, n, [&](std::size_t i) {
    const std::uint32_t r = static_cast<std::uint32_t>(
        rng::hash4(cfg_.seed, i, static_cast<std::uint64_t>(step_), 101) %
        kSortScale);
    keys_[i] = store.cell[i] * kSortScale + r;
  });
  // The store is still in the last sort's order: its cell blocks are this
  // sort's lanes.
  const cmdp::SortPlan plan = cmdp::counting_sort_plan(
      pool, keys_, ncells * kSortScale, key_cuts_);
  // Cell c's first key is c * kSortScale; read the starts before the
  // scatter consumes the table.
  for (std::uint32_t c = 0; c <= ncells; ++c)
    starts_[c] = plan.key_starts[c * kSortScale];
  store.scatter_sorted(pool, keys_, plan, scratch_);
  // The collide walks the new partition's cell blocks; the next sort runs
  // on them.
  cmdp::cut_partition(pool, starts_, cuts_);
  key_cuts_.resize(cuts_.size());
  for (std::size_t t = 0; t < cuts_.size(); ++t)
    key_cuts_[t] = cuts_[t] * kSortScale;

  std::atomic<std::uint64_t> coll{0};
  const auto lanes = static_cast<unsigned>(cuts_.size() - 1);
  cmdp::for_each_sort_lane(pool, lanes, [&](unsigned t) {
    std::uint64_t local = 0;
    const std::size_t end = starts_[cuts_[t + 1]];
    for (std::size_t i = starts_[cuts_[t]]; i < end; ++i) {
      const std::uint32_t c = store.cell[i];
      const std::uint32_t s = starts_[c];
      const std::uint32_t cnt = starts_[c + 1] - s;
      const std::uint32_t rank = static_cast<std::uint32_t>(i) - s;
      if (rank & 1u) continue;
      if (rank + 1 >= cnt) continue;
      const double p = cfg_.pc_inf * static_cast<double>(cnt) / cfg_.n_inf;
      const std::uint64_t bits =
          rng::hash4(cfg_.seed, i, static_cast<std::uint64_t>(step_), 102);
      if (p < 1.0 && rng::u64_to_unit_double(rng::mix64(bits)) >= p) continue;
      physics::Pair5<double> pv;
      pv.a[0] = store.ux[i];
      pv.a[1] = store.uy[i];
      pv.a[2] = store.uz[i];
      pv.a[3] = store.r0[i];
      pv.a[4] = store.r1[i];
      pv.b[0] = store.ux[i + 1];
      pv.b[1] = store.uy[i + 1];
      pv.b[2] = store.uz[i + 1];
      pv.b[3] = store.r0[i + 1];
      pv.b[4] = store.r1[i + 1];
      physics::collide_pair(pv, store.perm[i], bits);
      store.ux[i] = pv.a[0];
      store.uy[i] = pv.a[1];
      store.uz[i] = pv.a[2];
      store.r0[i] = pv.a[3];
      store.r1[i] = pv.a[4];
      store.ux[i + 1] = pv.b[0];
      store.uy[i + 1] = pv.b[1];
      store.uz[i + 1] = pv.b[2];
      store.r0[i + 1] = pv.b[3];
      store.r1[i + 1] = pv.b[4];
      store.perm[i] =
          rng::random_transposition(store.perm[i],
                                    bits >> physics::kTransposeShift);
      store.perm[i + 1] = rng::random_transposition(
          store.perm[i + 1], bits >> (physics::kTransposeShift + 16));
      ++local;
    }
    coll.fetch_add(local, std::memory_order_relaxed);
  });
  collisions_ += coll.load();
  ++step_;
}

}  // namespace cmdsmc::baseline
