// The stable key sort behind the paper's per-step "sort particles by
// (randomized) cell index" — the CM-2 rank-sort — used alike by the
// simulation and the baseline collision schemes.
//
// It is a one-table stable counting sort.  Lane t owns the key range
// [cuts[t], cuts[t+1]) and, with no barrier in between, counts its keys
// into its slice of one key_bound + 1 table (plus the keys below its
// range: its absolute output offset, so no cross-lane scan) and then
// scatters the 4-byte index of its records, in input order, into its own
// output slice (scatter_index_range); the record sort then gathers every
// particle array through that index (core/particles.h).  Both
// passes skip kKeyBlock-key blocks holding none of the lane's keys, which
// makes near-sorted keys (the previous step's order) cheap.  A sort's
// lanes are its caller's partition: the simulation and the pairwise
// baseline cut them at their previous sort's cell blocks, and a sort
// without one runs on one lane.  A stable sort's output is unique, so the
// cuts and lane count only decide who does the work.  The table is also
// each key's start, so callers read per-cell counts and starts from it
// instead of a separate histogram and scan.  The table lives in the
// pool's Workspace: steady-state sorting is allocation-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cmdp/parallel.h"
#include "cmdp/thread_pool.h"

namespace cmdsmc::cmdp {

inline constexpr std::size_t kKeyBlock = 64;

// How many of the first len keys lie in [lo, hi) — a branch-free count the
// compiler vectorizes, cheaper than the keys' min and max.
inline std::size_t keys_in_range(const std::uint32_t* keys, std::size_t len,
                                 std::uint32_t lo, std::uint32_t hi) {
  std::uint32_t in = 0;
  for (std::size_t i = 0; i < len; ++i) in += keys[i] - lo < hi - lo ? 1 : 0;
  return in;
}

// block(b, len) for consecutive kKeyBlock-key blocks [b, b + len) of
// [0, n), the last one possibly shorter.  Full blocks see a constant len,
// so the compiler unrolls their loops.
template <class BlockFn>
void for_each_key_block(std::size_t n, BlockFn&& block) {
  std::size_t b = 0;
  for (; b + kKeyBlock <= n; b += kKeyBlock) block(b, kKeyBlock);
  if (b < n) block(b, n - b);
}

// Count pass of the lane owning keys [lo, hi): writes into starts[lo..hi)
// the absolute first sorted position of each key and returns the end of
// the lane's output slice.  Touches no other table entry.
std::uint32_t count_key_range(std::span<const std::uint32_t> keys,
                              std::uint32_t lo, std::uint32_t hi,
                              std::uint32_t* starts);

// Scatter pass of the lane owning keys [lo, hi): move(src, dst) for each of
// its keys in input order, dst = cursors[key]++.  From the starts
// count_key_range left in cursors[lo..hi), every dst is the key's stable
// sorted position.  `move` is copied: a lane-local mover keeps its pointers
// in registers across the byte stores it makes.
template <class MoveFn>
void scatter_key_range(std::span<const std::uint32_t> keys, std::uint32_t lo,
                       std::uint32_t hi, std::uint32_t* cursors,
                       MoveFn move) {
  const std::uint32_t* const k = keys.data();
  for_each_key_block(keys.size(), [&](std::size_t b, std::size_t len) {
    const std::size_t in = keys_in_range(k + b, len, lo, hi);
    if (in == len) {
      for (std::size_t i = b; i < b + len; ++i)
        move(i, static_cast<std::size_t>(cursors[k[i]]++));
    } else if (in != 0) {
      for (std::size_t i = b; i < b + len; ++i)
        if (k[i] - lo < hi - lo)
          move(i, static_cast<std::size_t>(cursors[k[i]]++));
    }
  });
}

// Scatter pass that moves only the sort's 4-byte index: order[dst] = src
// for each key of the lane's range [lo, hi).  Returns the lane's output
// slice, every dst it wrote: the slots its gathers fill (core/particles.h,
// SortedGather).
inline Range scatter_index_range(std::span<const std::uint32_t> keys,
                                 std::uint32_t lo, std::uint32_t hi,
                                 std::uint32_t* cursors,
                                 std::uint32_t* order) {
  if (lo == hi) return {};
  const std::size_t begin = cursors[lo];
  scatter_key_range(keys, lo, hi, cursors,
                    [order](std::size_t src, std::size_t dst) {
                      order[dst] = static_cast<std::uint32_t>(src);
                    });
  // Each cursor stops at the next key's start: the last one at the slice's
  // end.
  return {begin, cursors[hi - 1]};
}

// A stable counting sort cut into lanes.  Spans borrow the pool's
// Workspace and the caller's cuts: a plan is invalidated by the next sort
// on the same pool.
struct SortPlan {
  std::size_t n = 0;
  std::uint32_t key_bound = 0;
  // The pool's lanes on the caller's partition, else one.
  unsigned lanes = 1;
  // Lane t owns keys [cuts[t], cuts[t + 1]).
  std::span<const std::uint32_t> cuts;
  // key_starts[k] = first sorted position of key k; key_starts[key_bound]
  // = n.  The scatter consumes it as its cursors: read it first.
  std::span<std::uint32_t> key_starts;
};

// fn(t) for every lane t < lanes: inline for one lane, else in one pass of
// the pool (lanes is 1 or pool.size()).
template <class Fn>
void for_each_sort_lane(ThreadPool& pool, unsigned lanes, Fn&& fn) {
  if (lanes == 1)
    fn(0u);
  else
    pool.parallel(fn);
}

// Every lane's count pass: a plan with key_starts filled.  Given
// pool.size() + 1 ascending key cuts from 0 to key_bound (the caller's
// partition, which the plan borrows) and at least kSerialCutoff keys, it
// runs the pool's lanes on them; otherwise it runs one lane.
SortPlan counting_sort_plan(ThreadPool& pool,
                            std::span<const std::uint32_t> keys,
                            std::uint32_t key_bound,
                            std::span<const std::uint32_t> cuts = {});

// The cells of a sorted array cut into cuts.size() - 1 lane blocks at
// particle-count quantiles: lane t owns cells [cuts[t], cuts[t + 1]), and
// cuts[t] is the first cell whose start reaches t * n / lanes (a cell never
// splits).  `starts` is the sort's per-cell first position plus an end
// sentinel: cell c holds [starts[c], starts[c + 1]), and starts.back() is
// the sorted count n.  Each cut is one binary search, and cuts[lanes] is
// the cell count, starts.size() - 1.
void count_quantile_cuts(std::span<const std::uint32_t> starts,
                         std::span<std::uint32_t> cuts);

// The partition every pass over a sorted array runs on: its cells cut by
// count_quantile_cuts into one block per pool lane, or into one block
// below kSerialCutoff particles.
void cut_partition(const ThreadPool& pool,
                   std::span<const std::uint32_t> starts,
                   std::vector<std::uint32_t>& cuts);

// Max / mean lane particle count of such cuts: 1 when they balance exactly
// (or there are no particles), the lane count when one lane holds them all.
double cut_imbalance(std::span<const std::uint32_t> starts,
                     std::span<const std::uint32_t> cuts);

// Stable counting sort on one lane.  Fills `order` (size == keys.size())
// such that keys[order[0]] <= keys[order[1]] <= ... with equal keys in
// input order, and `starts` (size == key_bound + 1) with the first sorted
// position of each key: key k occupies order[starts[k] .. starts[k + 1]).
void counting_sort_index(ThreadPool& pool, std::span<const std::uint32_t> keys,
                         std::uint32_t key_bound,
                         std::span<std::uint32_t> order,
                         std::span<std::uint32_t> starts);

}  // namespace cmdsmc::cmdp
