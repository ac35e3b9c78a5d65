// A barrier between the lanes of one parallel region.
//
// The sort's gathers run in rounds inside one region (core/particles.h,
// SortedGather): a round may write into a buffer another lane read in the
// round before, so every lane waits at a barrier between them.  The lanes
// are already running and the rounds are short, so a waiting lane spins a
// bounded number of `pause`s before it yields its CPU to a lane that has
// not arrived yet (a pool larger than the machine runs more lanes than
// there are CPUs).  The barrier has no clock: the pool's lane clock counts
// the wait as the region's time.
#pragma once

#include <atomic>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace cmdsmc::cmdp {

class LaneBarrier {
 public:
  // A barrier for `lanes` lanes; with one lane wait() returns at once.
  explicit LaneBarrier(unsigned lanes) : lanes_(lanes) {}

  LaneBarrier(const LaneBarrier&) = delete;
  LaneBarrier& operator=(const LaneBarrier&) = delete;

  // Returns once every lane has called wait() as often as this lane has:
  // whatever any lane wrote before its call is visible after this one.
  void wait() {
    if (lanes_ == 1) return;
    const unsigned round = round_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == lanes_) {
      // The last lane in opens the next round; nobody arrives at it before
      // seeing round_ move, so the reset cannot race an arrival.
      arrived_.store(0, std::memory_order_relaxed);
      round_.store(round + 1, std::memory_order_release);
      return;
    }
    unsigned spins = 0;
    while (round_.load(std::memory_order_acquire) == round) {
      if (spins < kSpins) {
        ++spins;
        relax();
      } else {
        std::this_thread::yield();
      }
    }
  }

 private:
  // Spins before a waiting lane starts yielding.  Long spins slow a pool
  // larger than the machine: its waiting lanes hold the CPUs the late ones
  // need.
  static constexpr unsigned kSpins = 128;

  static void relax() {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#endif
  }

  // The arrivals and the round a waiting lane spins on sit on separate
  // cache lines, so an arrival does not steal the spinners' line.
  const unsigned lanes_;
  alignas(64) std::atomic<unsigned> arrived_{0};
  alignas(64) std::atomic<unsigned> round_{0};
};

}  // namespace cmdsmc::cmdp
