// Wall-clock phase accounting used to regenerate the paper's performance
// breakdown (move 14% / sort 27% / select 20% / collide 39%).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <vector>

#include "cmdp/thread_pool.h"

namespace cmdsmc::cmdp {

// Accumulates wall-clock seconds per phase, phases numbered 0 .. count-1
// (the simulation numbers them by its Phase enum).  Not thread-safe: meant
// to be driven from the simulation's control thread around parallel
// regions.
//
// Per-lane accounting: each phase also accumulates, per lane of `pool`, the
// growth of that lane's clock (ThreadPool::lane_seconds) between start() and
// stop() — each lane's busy seconds inside the phase's parallel regions.
// That per-(phase, lane) table is the load-imbalance input the telemetry
// subsystem emits per step.  Serial work (and the serial fallbacks of the
// cmdp primitives) never enters a parallel region, so with more than one
// lane it shows up in the aggregate but in no lane; with exactly one lane,
// stop() credits lane 0 with the full aggregate so lane 0 equals the phase
// total by construction.
class PhaseTimers {
 public:
  using Clock = std::chrono::steady_clock;

  PhaseTimers(std::size_t phases, const ThreadPool& pool)
      : pool_(&pool),
        seconds_(phases, 0.0),
        start_(phases),
        lane_start_(phases * pool.size(), 0.0),
        lane_seconds_(phases * pool.size(), 0.0) {}

  void start(std::size_t id) {
    start_[id] = Clock::now();
    const std::vector<double>& clock = pool_->lane_seconds();
    std::copy(clock.begin(), clock.end(),
              lane_start_.begin() + static_cast<std::ptrdiff_t>(id * lanes()));
  }
  void stop(std::size_t id) {
    const double dt =
        std::chrono::duration<double>(Clock::now() - start_[id]).count();
    seconds_[id] += dt;
    const unsigned lanes = this->lanes();
    if (lanes == 1) {
      lane_seconds_[id] += dt;
      return;
    }
    const std::vector<double>& clock = pool_->lane_seconds();
    for (unsigned t = 0; t < lanes; ++t)
      lane_seconds_[id * lanes + t] += clock[t] - lane_start_[id * lanes + t];
  }

  double seconds(std::size_t id) const { return seconds_[id]; }
  double total_seconds() const;

  void reset();

  unsigned lanes() const { return pool_->size(); }
  // Cumulative busy seconds per (phase, lane), phase-major
  // ([id * lanes() + tid]).
  const std::vector<double>& lane_seconds_table() const {
    return lane_seconds_;
  }

  // RAII scope guard.
  class Scope {
   public:
    Scope(PhaseTimers& t, std::size_t id) : t_(t), id_(id) { t_.start(id_); }
    ~Scope() { t_.stop(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PhaseTimers& t_;
    std::size_t id_;
  };

 private:
  const ThreadPool* pool_;
  std::vector<double> seconds_;
  std::vector<Clock::time_point> start_;
  std::vector<double> lane_start_;    // pool lane clocks at start(), per phase
  std::vector<double> lane_seconds_;  // seconds_.size() * lanes(), phase-major
};

}  // namespace cmdsmc::cmdp
