// Fixed-size worker pool for fanning conditionally-independent per-object
// updates across cores.
//
// Design constraints, in order:
//  1. Determinism: fn(i, lane) runs exactly once per index; only *where* an
//     index runs depends on timing. Callers keep results bit-identical across
//     thread counts by deriving all randomness from the *index* (per-slot RNG
//     streams), never from the lane.
//  2. No per-epoch thread churn: workers are created once and parked on a
//     condition variable between epochs.
//  3. Zero overhead at num_threads == 1: the entry point degenerates to a
//     plain inline loop without touching any synchronization primitive.
//
// One scheduling mode, chunked work stealing (ParallelForDynamic): the range
// is cut into fixed-size chunks claimed through a single atomic cursor, so a
// lane that finishes early takes the next chunk instead of idling behind a
// lane stuck on expensive indices. Which lane runs a chunk is
// timing-dependent; what the chunk computes must not be.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace rfid {

class ThreadPool {
 public:
  /// `num_threads` is the total parallelism including the calling thread, so
  /// the pool spawns num_threads - 1 workers. Values <= 1 spawn none.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_lanes_; }

  /// Calls fn(i, lane) for every i in [0, n) exactly once, dispatching
  /// contiguous chunks of `chunk_size` indices (the last chunk may be short)
  /// through an atomic claim cursor shared by all lanes — work stealing in
  /// its simplest deterministic-safe form. `chunk_size` 0 picks a default
  /// that gives each lane several chunks to balance over. The caller
  /// participates as lane 0 and blocks until every index is done. Lane ids
  /// remain valid scratch indices (one lane runs one chunk at a time), but
  /// the chunk-to-lane assignment is a race by design: fn must derive
  /// results from the index alone. Not reentrant.
  void ParallelForDynamic(size_t n, size_t chunk_size,
                          const std::function<void(size_t, int)>& fn);

 private:
  void WorkerLoop(int lane);
  // SAFETY: RunLane reads the job_* fields without holding mu_. They are
  // written only by ParallelForDynamic under mu_ before the job is
  // published (workers observe the generation_ bump under mu_ before
  // calling RunLane; the caller wrote them itself), and never change while
  // lanes_remaining_ > 0 — ParallelForDynamic cannot return, so no new job
  // can be published, until every worker has decremented the count under
  // mu_. The mutex release/acquire pair is the happens-before edge; the
  // analysis cannot see the handoff.
  void RunLane(int lane) RFID_NO_THREAD_SAFETY_ANALYSIS;

  int num_lanes_;
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  // The job_* fields are written by ParallelForDynamic under mu_ before
  // workers are woken (generation_ bump observed under mu_ gives the
  // happens-before), and read by RunLane outside the lock while the job
  // runs. The analysis cannot model that publish protocol, so RunLane
  // carries the one justified RFID_NO_THREAD_SAFETY_ANALYSIS escape in this
  // file; every other access checks against these annotations.
  const std::function<void(size_t, int)>* job_ RFID_GUARDED_BY(mu_) = nullptr;
  size_t job_n_ RFID_GUARDED_BY(mu_) = 0;
  /// Chunk width of the job.
  size_t job_chunk_ RFID_GUARDED_BY(mu_) = 0;
  /// Next unclaimed chunk of the job. Relaxed ordering suffices: the
  /// job fields are published via mu_ before any lane runs, each chunk is
  /// claimed by exactly one fetch_add winner, and completion is observed
  /// through the lanes_remaining_/done_cv_ protocol (also under mu_).
  std::atomic<size_t> cursor_{0};
  /// Bumped per job to wake workers.
  uint64_t generation_ RFID_GUARDED_BY(mu_) = 0;
  int lanes_remaining_ RFID_GUARDED_BY(mu_) = 0;
  bool shutdown_ RFID_GUARDED_BY(mu_) = false;
};

}  // namespace rfid
