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

#include "cmdp/page_allocator.h"
#include "cmdp/sort.h"
#include "cmdp/thread_pool.h"
#include "rng/permutation.h"

namespace cmdsmc::core {

// A per-particle array: whole pages from the OS, so a store that grows past
// its capacity unmaps its old copy at once (cmdp/page_allocator.h).
template <class T>
using Array = std::vector<T, cmdp::PageAllocator<T>>;

template <class Real>
struct ParticleStore {
  // Physical state.
  Array<Real> x, y, z;  // z used only in 3D runs (kept empty in 2D)
  Array<Real> ux, uy, uz;
  Array<Real> r0, r1;
  // Vibrational "velocities" (2 DOF harmonic oscillator), allocated only
  // when the vibrational extension is enabled.
  Array<Real> v0, v1;
  // Radial statistical weight (axisymmetric runs only): how many
  // molecule-units this simulator represents.  Always double — the weight is
  // bookkeeping, not physical state, so it does not follow the fixed-point
  // engine.
  Array<double> weight;
  // Computational state.
  Array<rng::PackedPerm> perm;
  Array<std::uint32_t> cell;
  // Bit 0: particle is parked in the reservoir (not part of the flow).
  Array<std::uint8_t> flags;
  // Persistent particle identity (survives sorting) for tracking and
  // pair-correlation diagnostics.
  Array<std::uint32_t> id;

  bool has_z = false;
  bool has_vib = false;
  bool has_weight = false;

  static constexpr std::uint8_t kReservoirFlag = 1u;

  std::size_t size() const { return x.size(); }

  // The record, listed once: calls fn(name, s.a, more.a...) for every
  // active array a of `s` in checkpoint order.  `more` are stores with s's
  // layout (a copy or swap partner).  A new field goes here and in
  // mover_into; resize, copy_record, swap_arrays, the checkpoint and the
  // audit's hash and NaN scan walk this list.
  template <class Fn, class Store, class... More>
  static void for_each_array(Fn&& fn, Store& s, More&... more) {
    fn("x", s.x, more.x...);
    fn("y", s.y, more.y...);
    if (s.has_z) fn("z", s.z, more.z...);
    fn("ux", s.ux, more.ux...);
    fn("uy", s.uy, more.uy...);
    fn("uz", s.uz, more.uz...);
    fn("r0", s.r0, more.r0...);
    fn("r1", s.r1, more.r1...);
    if (s.has_vib) {
      fn("v0", s.v0, more.v0...);
      fn("v1", s.v1, more.v1...);
    }
    if (s.has_weight) fn("weight", s.weight, more.weight...);
    fn("perm", s.perm, more.perm...);
    fn("cell", s.cell, more.cell...);
    fn("flags", s.flags, more.flags...);
    fn("id", s.id, more.id...);
  }

  void resize(std::size_t n) {
    // New records weigh 1; every other new entry is value-initialized.
    if (has_weight) weight.resize(n, 1.0);
    for_each_array([n](const char*, auto& a) { a.resize(n); }, *this);
  }

  // Copies record `src` over record `dst` in every active array (the
  // weight-balancing pass's clone).
  void copy_record(std::size_t dst, std::size_t src) {
    for_each_array([dst, src](const char*, auto& a) { a[dst] = a[src]; },
                   *this);
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
    // The hot scatter spells the list out with raw pointers on both sides:
    // through the vectors (as for_each_array reaches them), each per-element
    // flags (uint8) store would force the compiler to re-load every data
    // pointer.
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
    for_each_array([](const char*, auto& a, auto& b) { a.swap(b); }, *this,
                   scratch);
  }
};

}  // namespace cmdsmc::core
