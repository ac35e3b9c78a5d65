// Structure-of-arrays particle storage.
//
// Physical state (paper): position, translational velocity (3 components),
// rotational velocity (2 components).  Computational state adds the cell
// index and the packed 5-element permutation vector.  One array element ==
// one "virtual processor" of the CM-2 mapping.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "cmdp/lane_barrier.h"
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
class SortedGather;

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
  // layout (a copy).  A new field goes here only; resize, copy_record, the
  // sort's gathers and swaps (SortedGather), the checkpoint and the audit's
  // hash and NaN scan walk this list.
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

  // Moves every record to its stable sorted position under a prepared
  // counting-sort plan (apply a plan at most once), in one region of the
  // plan's lanes: each lane scatters the sort's index over its output slice
  // and gathers the record over it (SortedGather).  `scratch` only lends the
  // spares, one array per element type; its other arrays stay as they are.
  void scatter_sorted(cmdp::ThreadPool& pool,
                      std::span<const std::uint32_t> keys,
                      const cmdp::SortPlan& plan, ParticleStore& scratch) {
    SortedGather<Real> gather(*this,
                              {scratch.x, scratch.weight, scratch.perm,
                               scratch.cell, scratch.flags},
                              pool.workspace().sort_order, plan.lanes);
    cmdp::for_each_sort_lane(pool, plan.lanes, [&](unsigned t) {
      gather.sort_lane(keys, plan.cuts[t], plan.cuts[t + 1],
                       plan.key_starts.data());
    });
    gather.finish();
  }
};

// The arrays a sort rotates a store's arrays through, one per element type
// (SortedGather).  References: the simulation lends its own spares plus its
// dead sort keys as the uint32_t one; scatter_sorted lends a scratch
// store's arrays.
template <class Real>
struct SpareArrays {
  Array<Real>& real;
  Array<double>& weight;  // a Fixed32 store's weight (double's is a Real)
  Array<rng::PackedPerm>& perm;
  Array<std::uint32_t>& u32;
  Array<std::uint8_t>& u8;

  // The spare of an array of T.
  template <class T>
  Array<T>& of() const {
    if constexpr (std::is_same_v<T, Real>) {
      return real;
    } else if constexpr (std::is_same_v<T, double>) {
      return weight;
    } else if constexpr (std::is_same_v<T, rng::PackedPerm>) {
      return perm;
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
      return u32;
    } else {
      static_assert(std::is_same_v<T, std::uint8_t>);
      return u8;
    }
  }
};

// The sort's record reorder, with no second store.  Each sort lane first
// scatters only the 4-byte index over its own output slice, order[d] = the
// record that belongs at sorted slot d (cmdp::scatter_index_range), and
// then gathers every array over that slice: sorted[d] = old[order[d]].
//
// The arrays of one element type form a chain through one spare: the first
// gathers into the spare, each later one into the old buffer of the one
// before it.  That buffer is free only once every lane has finished reading
// it, so the gathers run in rounds, round r moving the r-th array of every
// type, with a lane barrier between consecutive rounds (a planar double
// store takes 7 rounds).  The uint32_t chain starts one round late: its
// spare may be the sort keys, which every lane reads until its index
// scatter is done.  finish() then swaps each array with its type's spare in
// chain order, which hands every array its sorted copy and leaves each
// spare the old buffer of its chain's last array.
template <class Real>
class SortedGather {
 public:
  // Chains the active arrays of `store` through `spares`, resizing each
  // spare used to the store's size, and grows the index `order` to it.
  // `lanes` lanes call sort_lane().
  SortedGather(ParticleStore<Real>& store, const SpareArrays<Real>& spares,
               Array<std::uint32_t>& order, unsigned lanes)
      : store_(store),
        spares_(spares),
        order_(cmdp::grown(order, store.size())),
        barrier_(lanes) {
    struct Chain {
      const void* spare;
      void* next;  // the buffer the chain's next array gathers into
      unsigned round;
    };
    std::array<Chain, 5> chains{};
    std::size_t nchains = 0;
    const std::size_t n = store.size();
    ParticleStore<Real>::for_each_array(
        [&](const char*, auto& a) {
          using T = typename std::decay_t<decltype(a)>::value_type;
          Array<T>& spare = spares.template of<T>();
          Chain* c = chains.data();
          while (c != chains.data() + nchains && c->spare != &spare) ++c;
          if (c == chains.data() + nchains) {
            spare.resize(n);
            *c = {&spare, spare.data(),
                  std::is_same_v<T, std::uint32_t> ? 1u : 0u};
            ++nchains;
          }
          moves_[nmoves_++] = {c->round, &gather_array<T>, c->next, a.data()};
          c->next = a.data();
          ++c->round;
          rounds_ = std::max(rounds_, c->round);
        },
        store);
  }

  // A lane's share of the sort once the key table holds its starts: the
  // index scatter of its keys [lo, hi) (cursors as for
  // cmdp::scatter_key_range), then the gathers over the output slice it
  // wrote.  Every lane calls it once, an empty range too: it waits at
  // every barrier.
  void sort_lane(std::span<const std::uint32_t> keys, std::uint32_t lo,
                 std::uint32_t hi, std::uint32_t* cursors) {
    const cmdp::Range slice =
        cmdp::scatter_index_range(keys, lo, hi, cursors, order_);
    gather(slice.begin, slice.end);
  }

  // Where the sorted copy of the store's array `a` lands until finish():
  // a lane may read it over its own slice once its sort_lane() returns.
  template <class T>
  const T* sorted(const Array<T>& a) const {
    std::size_t m = 0;
    while (moves_[m].src != a.data()) ++m;
    return static_cast<const T*>(moves_[m].dst);
  }

  // After the region: the swaps that hand every array its sorted copy.
  void finish() {
    ParticleStore<Real>::for_each_array(
        [this](const char*, auto& a) {
          using T = typename std::decay_t<decltype(a)>::value_type;
          a.swap(spares_.template of<T>());
        },
        store_);
  }

 private:
  // The gathers over [begin, end), round by round.
  void gather(std::size_t begin, std::size_t end) {
    for (unsigned r = 0; r < rounds_; ++r) {
      if (r > 0) barrier_.wait();
      for (std::size_t m = 0; m < nmoves_; ++m)
        if (moves_[m].round == r)
          moves_[m].gather(moves_[m].dst, moves_[m].src, order_, begin, end);
    }
  }

  // One array's gather over [begin, end): dst[d] = src[order[d]].
  struct Move {
    unsigned round;
    void (*gather)(void* dst, const void* src, const std::uint32_t* order,
                   std::size_t begin, std::size_t end);
    void* dst;
    const void* src;
  };

  template <class T>
  static void gather_array(void* dst, const void* src,
                           const std::uint32_t* order, std::size_t begin,
                           std::size_t end) {
    T* const d = static_cast<T*>(dst);
    const T* const s = static_cast<const T*>(src);
    for (std::size_t i = begin; i < end; ++i) d[i] = s[order[i]];
  }

  ParticleStore<Real>& store_;
  SpareArrays<Real> spares_;
  std::uint32_t* order_;
  std::array<Move, 15> moves_{};
  std::size_t nmoves_ = 0;
  unsigned rounds_ = 0;
  cmdp::LaneBarrier barrier_;
};

}  // namespace cmdsmc::core
