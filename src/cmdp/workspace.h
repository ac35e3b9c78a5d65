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

namespace cmdsmc::cmdp {

struct Workspace {
  // The counting sort: the one per-key starts/cursor table (key_bound + 1)
  // and the lanes' key cuts (lanes + 1).
  std::vector<std::uint32_t> sort_starts;
  std::vector<std::uint32_t> sort_cuts;

  // Bytes currently held across all buffers (telemetry's arena gauge).
  std::size_t bytes() const {
    return (sort_starts.capacity() + sort_cuts.capacity()) *
           sizeof(std::uint32_t);
  }

  // Frees every buffer (a cold arena must sort exactly like a warm one).
  void release() {
    for (auto* v : {&sort_starts, &sort_cuts}) {
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
