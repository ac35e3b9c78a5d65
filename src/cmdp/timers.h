// Wall-clock phase accounting used to regenerate the paper's performance
// breakdown (move 14% / sort 27% / select 20% / collide 39%).
#pragma once

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
// Optional per-lane accounting (enable_lane_accumulation): the timers act as
// the pool's LaneTimeSink while a phase Scope holds them attached, so each
// lane's busy seconds inside the phase's parallel regions accumulate under
// (phase, lane).  That per-(phase, lane) table is the load-imbalance input
// the telemetry subsystem emits per step.  Serial work (and the serial
// fallbacks of the cmdp primitives) never enters a parallel region, so with
// more than one lane it shows up in the aggregate but in no lane; with
// exactly one lane, stop() credits lane 0 with the full aggregate so lane 0
// equals the phase total by construction.
class PhaseTimers : public LaneTimeSink {
 public:
  using Clock = std::chrono::steady_clock;

  explicit PhaseTimers(std::size_t phases)
      : seconds_(phases, 0.0), start_(phases) {}

  void start(std::size_t id) {
    start_[id] = Clock::now();
    current_ = id;
  }
  void stop(std::size_t id) {
    const double dt =
        std::chrono::duration<double>(Clock::now() - start_[id]).count();
    seconds_[id] += dt;
    if (lanes_ == 1) lane_seconds_[id] += dt;
    current_ = kNoPhase;
  }

  double seconds(std::size_t id) const { return seconds_[id]; }
  double total_seconds() const;

  void reset();

  // --- Per-lane accumulation ---
  // Sizes the (phase, lane) table and starts routing lane time into it;
  // 0 lanes disables.  Safe to call repeatedly (resets the table).
  void enable_lane_accumulation(unsigned lanes);
  void disable_lane_accumulation() { enable_lane_accumulation(0); }
  unsigned lanes() const { return lanes_; }
  // Cumulative busy seconds per (phase, lane), phase-major
  // ([id * lanes() + tid]); empty when off.
  const std::vector<double>& lane_seconds_table() const {
    return lane_seconds_;
  }

  // LaneTimeSink: credits `seconds` to (current phase, tid).  Called
  // concurrently by the pool's lanes while a pool-attached Scope is open;
  // distinct tids write distinct slots.
  void record_lane_time(unsigned tid, double seconds) override {
    if (current_ != kNoPhase) lane_seconds_[current_ * lanes_ + tid] += seconds;
  }

  // RAII scope guard.  With a pool it also attaches these timers as the
  // pool's lane-time sink for the duration of the phase (only when per-lane
  // accumulation is on with more than one lane — a one-lane table is filled
  // exactly by stop() instead).
  class Scope {
   public:
    Scope(PhaseTimers& t, std::size_t id, ThreadPool* pool) : t_(t), id_(id) {
      if (pool != nullptr && t_.lanes() > 1) {
        pool_ = pool;
        pool_->set_lane_time_sink(&t_);
      }
      t_.start(id_);
    }
    ~Scope() {
      t_.stop(id_);
      if (pool_ != nullptr) pool_->set_lane_time_sink(nullptr);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PhaseTimers& t_;
    std::size_t id_;
    ThreadPool* pool_ = nullptr;
  };

 private:
  static constexpr std::size_t kNoPhase = static_cast<std::size_t>(-1);

  std::vector<double> seconds_;
  std::vector<Clock::time_point> start_;
  unsigned lanes_ = 0;
  std::size_t current_ = kNoPhase;
  std::vector<double> lane_seconds_;  // seconds_.size() * lanes_, phase-major
};

}  // namespace cmdsmc::cmdp
