// Structure-of-arrays particle storage.
//
// Physical state (paper): position, translational velocity (3 components),
// rotational velocity (2 components).  Computational state adds the cell
// index and the packed 5-element permutation vector.  One array element ==
// one "virtual processor" of the CM-2 mapping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cmdp/sort.h"
#include "cmdp/thread_pool.h"
#include "rng/permutation.h"

namespace cmdsmc::core {

template <class Real>
struct ParticleStore {
  // Physical state.
  std::vector<Real> x, y, z;  // z used only in 3D runs (kept empty in 2D)
  std::vector<Real> ux, uy, uz;
  std::vector<Real> r0, r1;
  // Vibrational "velocities" (2 DOF harmonic oscillator), allocated only
  // when the vibrational extension is enabled.
  std::vector<Real> v0, v1;
  // Radial statistical weight (axisymmetric runs only): how many
  // molecule-units this simulator represents.  Always double — the weight is
  // bookkeeping, not physical state, so it does not follow the fixed-point
  // engine.
  std::vector<double> weight;
  // Computational state.
  std::vector<rng::PackedPerm> perm;
  std::vector<std::uint32_t> cell;
  // Bit 0: particle is parked in the reservoir (not part of the flow).
  std::vector<std::uint8_t> flags;
  // Persistent particle identity (survives sorting) for tracking and
  // pair-correlation diagnostics.
  std::vector<std::uint32_t> id;

  bool has_z = false;
  bool has_vib = false;
  bool has_weight = false;

  static constexpr std::uint8_t kReservoirFlag = 1u;

  std::size_t size() const { return x.size(); }

  void resize(std::size_t n) {
    x.resize(n);
    y.resize(n);
    if (has_z) z.resize(n);
    ux.resize(n);
    uy.resize(n);
    uz.resize(n);
    r0.resize(n);
    r1.resize(n);
    if (has_vib) {
      v0.resize(n);
      v1.resize(n);
    }
    if (has_weight) weight.resize(n, 1.0);
    perm.resize(n);
    cell.resize(n);
    flags.resize(n);
    id.resize(n);
  }

  void push_back(Real px, Real py, Real pz, Real vx, Real vy, Real vz,
                 Real rot0, Real rot1, rng::PackedPerm p,
                 std::uint8_t flag = 0, double w = 1.0) {
    x.push_back(px);
    y.push_back(py);
    if (has_z) z.push_back(pz);
    ux.push_back(vx);
    uy.push_back(vy);
    uz.push_back(vz);
    r0.push_back(rot0);
    r1.push_back(rot1);
    if (has_vib) {
      v0.push_back(Real{});
      v1.push_back(Real{});
    }
    if (has_weight) weight.push_back(w);
    perm.push_back(p);
    cell.push_back(0);
    flags.push_back(flag);
    id.push_back(static_cast<std::uint32_t>(id.size()));
  }

  // Copies record `src` over record `dst` in every active array — the
  // per-field enumeration compaction and cloning share (a new field has to
  // be added here, in resize/push_back, mover_into and swap_arrays).
  void copy_record(std::size_t dst, std::size_t src) {
    x[dst] = x[src];
    y[dst] = y[src];
    if (has_z) z[dst] = z[src];
    ux[dst] = ux[src];
    uy[dst] = uy[src];
    uz[dst] = uz[src];
    r0[dst] = r0[src];
    r1[dst] = r1[src];
    if (has_vib) {
      v0[dst] = v0[src];
      v1[dst] = v1[src];
    }
    if (has_weight) weight[dst] = weight[src];
    perm[dst] = perm[src];
    cell[dst] = cell[src];
    flags[dst] = flags[src];
    id[dst] = id[src];
  }

  // Sizes `scratch` like this store and returns move(src, dst), which copies
  // record src of this store to slot dst of `scratch` (calls with distinct
  // dst may run concurrently).  Once every record has moved,
  // swap_arrays(scratch) makes the moved records this store's.
  auto mover_into(ParticleStore& scratch) {
    scratch.has_z = has_z;
    scratch.has_vib = has_vib;
    scratch.has_weight = has_weight;
    scratch.resize(size());
    // Raw pointers on both sides: the per-element flags (uint8) store would
    // otherwise force the compiler to re-load every source vector pointer.
    const Real* const px = x.data();
    const Real* const py = y.data();
    const Real* const pz = has_z ? z.data() : nullptr;
    const Real* const pux = ux.data();
    const Real* const puy = uy.data();
    const Real* const puz = uz.data();
    const Real* const pr0 = r0.data();
    const Real* const pr1 = r1.data();
    const Real* const pv0 = has_vib ? v0.data() : nullptr;
    const Real* const pv1 = has_vib ? v1.data() : nullptr;
    const double* const pw = has_weight ? weight.data() : nullptr;
    const rng::PackedPerm* const pperm = perm.data();
    const std::uint32_t* const pcell = cell.data();
    const std::uint8_t* const pflags = flags.data();
    const std::uint32_t* const pid = id.data();
    Real* const sx = scratch.x.data();
    Real* const sy = scratch.y.data();
    Real* const sz = has_z ? scratch.z.data() : nullptr;
    Real* const sux = scratch.ux.data();
    Real* const suy = scratch.uy.data();
    Real* const suz = scratch.uz.data();
    Real* const sr0 = scratch.r0.data();
    Real* const sr1 = scratch.r1.data();
    Real* const sv0 = has_vib ? scratch.v0.data() : nullptr;
    Real* const sv1 = has_vib ? scratch.v1.data() : nullptr;
    double* const sw = has_weight ? scratch.weight.data() : nullptr;
    rng::PackedPerm* const sperm = scratch.perm.data();
    std::uint32_t* const scell = scratch.cell.data();
    std::uint8_t* const sflags = scratch.flags.data();
    std::uint32_t* const sid = scratch.id.data();
    return [=](std::size_t src, std::size_t dst) {
      sx[dst] = px[src];
      sy[dst] = py[src];
      if (sz != nullptr) sz[dst] = pz[src];
      sux[dst] = pux[src];
      suy[dst] = puy[src];
      suz[dst] = puz[src];
      sr0[dst] = pr0[src];
      sr1[dst] = pr1[src];
      if (sv0 != nullptr) {
        sv0[dst] = pv0[src];
        sv1[dst] = pv1[src];
      }
      if (sw != nullptr) sw[dst] = pw[src];
      sperm[dst] = pperm[src];
      scell[dst] = pcell[src];
      sflags[dst] = pflags[src];
      sid[dst] = pid[src];
    };
  }

  // One-pass fused sort -> reorder: moves every record straight to its
  // stable sorted position (scratch[dst] <- this[src]) using a prepared
  // counting-sort plan, then swaps the buffers in.  One sequential read pass
  // over all arrays instead of a permutation array plus one gather pass per
  // array.
  void scatter_sorted(cmdp::ThreadPool& pool,
                      std::span<const std::uint32_t> keys,
                      const cmdp::SortPlan& plan, ParticleStore& scratch) {
    cmdp::apply_sort_plan(pool, keys, plan, mover_into(scratch));
    swap_arrays(scratch);
  }

  // Exchanges every active array with scratch's.
  void swap_arrays(ParticleStore& scratch) {
    x.swap(scratch.x);
    y.swap(scratch.y);
    if (has_z) z.swap(scratch.z);
    ux.swap(scratch.ux);
    uy.swap(scratch.uy);
    uz.swap(scratch.uz);
    r0.swap(scratch.r0);
    r1.swap(scratch.r1);
    if (has_vib) {
      v0.swap(scratch.v0);
      v1.swap(scratch.v1);
    }
    if (has_weight) weight.swap(scratch.weight);
    perm.swap(scratch.perm);
    cell.swap(scratch.cell);
    flags.swap(scratch.flags);
    id.swap(scratch.id);
  }
};

}  // namespace cmdsmc::core
