#include "util/thread_pool.h"

#include <algorithm>

namespace rfid {

ThreadPool::ThreadPool(int num_threads)
    : num_lanes_(std::max(1, num_threads)) {
  workers_.reserve(num_lanes_ - 1);
  for (int lane = 1; lane < num_lanes_; ++lane) {
    workers_.emplace_back([this, lane] { WorkerLoop(lane); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

// Justification for the escape on this function lives on its declaration
// in thread_pool.h (job-publish protocol; mu_ handoff).
void ThreadPool::RunLane(int lane) {
  // Chunked work stealing: every lane pulls the next unclaimed chunk off the
  // shared cursor until the range is exhausted. fetch_add hands each chunk
  // to exactly one lane, so every index still runs exactly once.
  const size_t num_chunks = (job_n_ + job_chunk_ - 1) / job_chunk_;
  for (;;) {
    const size_t c = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (c >= num_chunks) return;
    const size_t begin = c * job_chunk_;
    const size_t end = std::min(job_n_, begin + job_chunk_);
    for (size_t i = begin; i < end; ++i) {
      (*job_)(i, lane);
    }
  }
}

void ThreadPool::WorkerLoop(int lane) {
  uint64_t seen_generation = 0;
  for (;;) {
    {
      MutexLock lock(mu_);
      while (!shutdown_ && generation_ == seen_generation) {
        work_cv_.Wait(lock);
      }
      if (shutdown_) return;
      seen_generation = generation_;
    }
    RunLane(lane);
    {
      MutexLock lock(mu_);
      if (--lanes_remaining_ == 0) done_cv_.NotifyOne();
    }
  }
}

void ThreadPool::ParallelForDynamic(
    size_t n, size_t chunk_size, const std::function<void(size_t, int)>& fn) {
  if (n == 0) return;
  if (num_lanes_ == 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  if (chunk_size == 0) {
    // Several chunks per lane so one expensive chunk can be balanced around,
    // without shrinking chunks to the point where the cursor contends.
    const size_t lanes = static_cast<size_t>(num_lanes_);
    chunk_size = std::max<size_t>(1, n / (lanes * 8));
  }
  {
    MutexLock lock(mu_);
    job_ = &fn;
    job_n_ = n;
    job_chunk_ = chunk_size;
    cursor_.store(0, std::memory_order_relaxed);
    lanes_remaining_ = num_lanes_ - 1;
    ++generation_;
  }
  work_cv_.NotifyAll();
  RunLane(0);  // The caller is lane 0.
  {
    MutexLock lock(mu_);
    while (lanes_remaining_ != 0) done_cv_.Wait(lock);
    job_ = nullptr;
  }
}

}  // namespace rfid
