#include "cmdp/thread_pool.h"

#include <chrono>
#include <cstdlib>
#include <string>

namespace cmdsmc::cmdp {

ThreadPool::ThreadPool(unsigned n) {
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  nthreads_ = n;
  lane_seconds_.assign(nthreads_, 0.0);
  workers_.reserve(nthreads_ - 1);
  for (unsigned tid = 1; tid < nthreads_; ++tid) {
    workers_.emplace_back([this, tid] { worker_loop(tid); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::parallel(const std::function<void(unsigned)>& fn) {
  ++regions_;
  if (nthreads_ == 1) {
    run_lane(fn, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(m_);
    job_ = &fn;
    ++generation_;
    pending_ = nthreads_ - 1;
  }
  cv_start_.notify_all();
  run_lane(fn, 0);
  std::unique_lock<std::mutex> lk(m_);
  cv_done_.wait(lk, [this] { return pending_ == 0; });
  job_ = nullptr;
}

void ThreadPool::run_lane(const std::function<void(unsigned)>& fn,
                          unsigned tid) {
  const auto t0 = std::chrono::steady_clock::now();
  fn(tid);
  lane_seconds_[tid] +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

void ThreadPool::worker_loop(unsigned tid) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(unsigned)>* fn = nullptr;
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_start_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      fn = job_;
    }
    run_lane(*fn, tid);
    {
      std::lock_guard<std::mutex> lk(m_);
      if (--pending_ == 0) cv_done_.notify_one();
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("CMDSMC_THREADS")) {
      int v = std::atoi(env);
      if (v > 0) return static_cast<unsigned>(v);
    }
    return 0u;
  }());
  return pool;
}

}  // namespace cmdsmc::cmdp
