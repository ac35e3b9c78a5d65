// Reusable scratch for the allocation-heavy cmdp primitives.
//
// The per-step hot loop calls histogram / counting-sort / compaction every
// step; before this arena each call heap-allocated (and freed) its lane
// tables and radix passes.  One Workspace lives on each ThreadPool: a pool is
// not reentrant, so primitives running on the same pool never overlap and can
// share these buffers.  Buffers only grow (resize keeps capacity across
// steps); release() returns the memory to the allocator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cmdsmc::cmdp {

struct Workspace {
  // The counting sort: the one per-key starts/cursor table (key_bound + 1)
  // and the lanes' key cuts (lanes + 1).
  std::vector<std::uint32_t> sort_starts;
  std::vector<std::uint32_t> sort_cuts;
  // histogram: per-lane counts (lanes x key_bound).
  std::vector<std::uint32_t> hist_lanes;
  // stable_sort_index radix passes (the four n-sized arrays).
  std::vector<std::uint32_t> radix_low;
  std::vector<std::uint32_t> radix_order1;
  std::vector<std::uint32_t> radix_high;
  std::vector<std::uint32_t> radix_order2;
  // compact_indices: keep-flags to offsets scratch (two n-sized arrays).
  std::vector<std::uint32_t> compact_ones;
  std::vector<std::uint32_t> compact_offsets;

  // Bytes currently held across all buffers (telemetry's arena gauge).
  std::size_t bytes() const {
    std::size_t total = 0;
    for (const auto* v :
         {&sort_starts, &sort_cuts, &hist_lanes, &radix_low, &radix_order1,
          &radix_high, &radix_order2, &compact_ones, &compact_offsets}) {
      total += v->capacity() * sizeof(std::uint32_t);
    }
    return total;
  }

  // Frees every buffer (a cold arena must sort exactly like a warm one).
  void release() {
    for (auto* v :
         {&sort_starts, &sort_cuts, &hist_lanes, &radix_low, &radix_order1,
          &radix_high, &radix_order2, &compact_ones, &compact_offsets}) {
      v->clear();
      v->shrink_to_fit();
    }
  }
};

// Grows (never shrinks) `v` to at least n elements and returns its data
// pointer.  Newly exposed contents are unspecified: callers must write
// before reading.
inline std::uint32_t* grown(std::vector<std::uint32_t>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

}  // namespace cmdsmc::cmdp
