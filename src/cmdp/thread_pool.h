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

// Persistent fork-join pool.  The calling thread participates as lane 0, so a
// pool of size N owns N-1 worker threads.  `parallel(fn)` runs `fn(tid)` on
// every lane and blocks until all lanes finish.  The pool is not reentrant:
// `fn` must not itself call `parallel` on the same pool.
//
// The pool is also the lane clock: every region adds each lane's busy time
// inside it to that lane's slot of lane_seconds() and counts itself in
// regions().  The phase timers (cmdp/timers.h) difference those clocks.
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

  // Cumulative busy seconds of each lane inside parallel regions, indexed by
  // tid.  Lane t writes slot t before the join, so the control thread reads
  // every slot safely between regions.  Measured time: for telemetry only.
  const std::vector<double>& lane_seconds() const { return lane_seconds_; }
  // Parallel regions opened so far.
  std::uint64_t regions() const { return regions_; }

  // Scratch buffers shared by the cmdp primitives running on this pool.
  // Safe because the pool is not reentrant: two primitives never execute
  // concurrently on the same pool.
  Workspace& workspace() { return workspace_; }

  // Process-wide pool.  Size taken from env CMDSMC_THREADS if set, else
  // hardware concurrency.  Created on first use.
  static ThreadPool& global();

 private:
  void worker_loop(unsigned tid);
  // Runs lane tid's share of a region and adds its busy time to the clock.
  void run_lane(const std::function<void(unsigned)>& fn, unsigned tid);

  unsigned nthreads_;
  std::vector<double> lane_seconds_;
  std::uint64_t regions_ = 0;
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
