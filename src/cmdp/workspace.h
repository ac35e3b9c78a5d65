// Reusable scratch for the counting sort.
//
// Every step sorts the particles; before this arena each sort heap-allocated
// (and freed) its tables.  One Workspace lives on each ThreadPool: a pool is
// not reentrant, so sorts running on the same pool never overlap and can
// share these buffers.  Buffers only grow (resize keeps capacity across
// steps); release() returns the memory to the allocator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cmdp/page_allocator.h"

namespace cmdsmc::cmdp {

struct Workspace {
  // The counting sort: the one per-key starts/cursor table (key_bound + 1)
  // and the cuts {0, key_bound} of a plan run on one lane.
  std::vector<std::uint32_t> sort_starts;
  std::vector<std::uint32_t> sort_cuts;
  // The sort's index, one entry per record: order[d] is the record that
  // belongs at sorted slot d.  Page-mapped like the particle arrays.
  std::vector<std::uint32_t, PageAllocator<std::uint32_t>> sort_order;

  // Bytes currently held across all buffers (telemetry's arena gauge).
  std::size_t bytes() const {
    return (sort_starts.capacity() + sort_cuts.capacity() +
            sort_order.capacity()) *
           sizeof(std::uint32_t);
  }

  // Frees every buffer (a cold arena must sort exactly like a warm one).
  void release() { *this = Workspace(); }
};

// Grows (never shrinks) `v` to at least n elements and returns its data
// pointer.  Newly exposed contents are unspecified: callers must write
// before reading.
template <class Alloc>
std::uint32_t* grown(std::vector<std::uint32_t, Alloc>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

}  // namespace cmdsmc::cmdp
