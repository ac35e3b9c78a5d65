// cmdp: the data-parallel substrate standing in for the Connection Machine.
//
// The paper's algorithm is expressed purely in terms of data-parallel
// primitives (elementwise maps over "virtual processors", reductions, scans,
// rank-sorts).  On the CM-2 these were provided by Paris / C*; here maps,
// reductions and the rank-sort run over a persistent fork-join thread pool
// on a multicore CPU, and the sort's per-key starts table stands in for the
// scans (each cell's count and first position).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "cmdp/workspace.h"

namespace cmdsmc::cmdp {

// Receiver for per-lane busy time measured inside parallel regions (see
// ThreadPool::set_lane_time_sink).  Called concurrently from every lane,
// each with its own tid — implementations must be safe for distinct-tid
// concurrent calls (e.g. tid-indexed slots), but never see two calls with
// the same tid at once.
class LaneTimeSink {
 public:
  virtual ~LaneTimeSink() = default;
  virtual void record_lane_time(unsigned tid, double seconds) = 0;
};

// Persistent fork-join pool.  The calling thread participates as lane 0, so a
// pool of size N owns N-1 worker threads.  `parallel(fn)` runs `fn(tid)` on
// every lane and blocks until all lanes finish.  The pool is not reentrant:
// `fn` must not itself call `parallel` on the same pool.
class ThreadPool {
 public:
  // n == 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned n = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return nthreads_; }

  // Runs fn(tid) for tid in [0, size()); blocks until every lane returns.
  void parallel(const std::function<void(unsigned)>& fn);

  // While set, every parallel() measures each lane's wall time inside the
  // region and reports it to the sink — the per-lane phase accounting the
  // telemetry subsystem feeds on.  Control-thread only (like parallel()
  // itself); pass nullptr to detach.  Costs two clock reads per lane per
  // region when attached, nothing when not.
  void set_lane_time_sink(LaneTimeSink* sink) { lane_sink_ = sink; }

  // Scratch buffers shared by the cmdp primitives running on this pool.
  // Safe because the pool is not reentrant: two primitives never execute
  // concurrently on the same pool.
  Workspace& workspace() { return workspace_; }

  // Process-wide pool.  Size taken from env CMDSMC_THREADS if set, else
  // hardware concurrency.  Created on first use.
  static ThreadPool& global();

 private:
  void worker_loop(unsigned tid);
  void dispatch(const std::function<void(unsigned)>& fn);

  unsigned nthreads_;
  LaneTimeSink* lane_sink_ = nullptr;
  std::vector<std::thread> workers_;
  Workspace workspace_;

  std::mutex m_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(unsigned)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  unsigned pending_ = 0;
  bool stop_ = false;
};

}  // namespace cmdsmc::cmdp
