// Elementwise data-parallel operations: the "one virtual processor per datum"
// primitives of the paper, executed as statically partitioned loops.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "cmdp/thread_pool.h"

namespace cmdsmc::cmdp {

// Half-open index range handed to one lane.
struct Range {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};

// Static partition of [0, n) into pool.size() near-equal ranges.
inline Range lane_range(std::size_t n, unsigned tid, unsigned nlanes) {
  const std::size_t base = n / nlanes;
  const std::size_t rem = n % nlanes;
  const std::size_t begin = tid * base + (tid < rem ? tid : rem);
  const std::size_t len = base + (tid < rem ? 1 : 0);
  return {begin, begin + len};
}

// Below this many elements the fork-join overhead dominates; run serially.
inline constexpr std::size_t kSerialCutoff = 4096;

// Per-lane partial values of reductions.  Up to kInlineLanes the
// partials live on the stack, so the per-call heap allocation the primitives
// used to make disappears on any sane machine.
inline constexpr unsigned kInlineLanes = 64;

template <class T>
class LanePartials {
 public:
  LanePartials(unsigned lanes, const T& init) {
    if (lanes <= kInlineLanes) {
      p_ = stack_.data();
      std::fill(p_, p_ + lanes, init);
    } else {
      heap_.assign(lanes, init);
      p_ = heap_.data();
    }
  }
  // p_ may point into stack_, so copying/moving would dangle.
  LanePartials(const LanePartials&) = delete;
  LanePartials& operator=(const LanePartials&) = delete;
  T& operator[](std::size_t i) { return p_[i]; }

 private:
  std::array<T, kInlineLanes> stack_;
  std::vector<T> heap_;
  T* p_ = nullptr;
};

// f(i) for each i in [0, n).
template <class F>
void parallel_for(ThreadPool& pool, std::size_t n, F&& f) {
  if (n == 0) return;
  if (pool.size() == 1 || n < kSerialCutoff) {
    for (std::size_t i = 0; i < n; ++i) f(i);
    return;
  }
  pool.parallel([&](unsigned tid) {
    const Range r = lane_range(n, tid, pool.size());
    for (std::size_t i = r.begin; i < r.end; ++i) f(i);
  });
}

// f(range, tid): one call per lane with its contiguous range.  Always invokes
// on every lane (even empty ranges) so per-lane scratch can be indexed by tid.
template <class F>
void parallel_chunks(ThreadPool& pool, std::size_t n, F&& f) {
  if (pool.size() == 1 || n < kSerialCutoff) {
    f(Range{0, n}, 0u);
    return;
  }
  pool.parallel([&](unsigned tid) { f(lane_range(n, tid, pool.size()), tid); });
}

// Reduction: combine(acc, f(i)) over i in [0, n), associative `combine`.
template <class T, class F, class Combine>
T parallel_reduce(ThreadPool& pool, std::size_t n, T identity, F&& f,
                  Combine&& combine) {
  if (pool.size() == 1 || n < kSerialCutoff) {
    T acc = identity;
    for (std::size_t i = 0; i < n; ++i) acc = combine(acc, f(i));
    return acc;
  }
  const unsigned lanes = pool.size();
  LanePartials<T> partial(lanes, identity);
  pool.parallel([&](unsigned tid) {
    const Range r = lane_range(n, tid, pool.size());
    T acc = identity;
    for (std::size_t i = r.begin; i < r.end; ++i) acc = combine(acc, f(i));
    partial[tid] = acc;
  });
  T acc = identity;
  for (unsigned t = 0; t < lanes; ++t) acc = combine(acc, partial[t]);
  return acc;
}

// Convenience sum reduction.
template <class T, class F>
T parallel_sum(ThreadPool& pool, std::size_t n, F&& f) {
  return parallel_reduce(
      pool, n, T{}, std::forward<F>(f),
      [](const T& a, const T& b) { return static_cast<T>(a + b); });
}

}  // namespace cmdsmc::cmdp
