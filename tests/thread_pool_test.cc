// The ThreadPool scheduling contract: fn(i, lane) runs exactly once per
// index regardless of thread count, chunk size, or which lane happens to
// claim which chunk. The chunk-to-lane assignment is a race by design, so
// these tests only ever assert on per-index effects — and the stress cases
// double as the TSan target for the claim cursor.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace rfid {
namespace {

/// Runs ParallelForDynamic and returns how many times each index was
/// visited (always expected to be exactly one).
std::vector<int> CountVisits(ThreadPool* pool, size_t n, size_t chunk) {
  std::vector<std::unique_ptr<std::atomic<int>>> hits(n);
  for (auto& h : hits) h = std::make_unique<std::atomic<int>>(0);
  pool->ParallelForDynamic(n, chunk, [&hits](size_t i, int lane) {
    ASSERT_GE(lane, 0);
    hits[i]->fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<int> counts(n);
  for (size_t i = 0; i < n; ++i) counts[i] = hits[i]->load();
  return counts;
}

TEST(ThreadPoolTest, DynamicVisitsEveryIndexOnceAcrossChunkSizes) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    // Chunk sizes spanning the interesting shapes: unit chunks (maximum
    // stealing), a size that does not divide n, one chunk covering
    // everything, a chunk larger than n, and the auto default.
    for (size_t chunk : {size_t{1}, size_t{7}, size_t{100}, size_t{1000},
                         size_t{0}}) {
      const std::vector<int> counts = CountVisits(&pool, 100, chunk);
      for (size_t i = 0; i < counts.size(); ++i) {
        EXPECT_EQ(counts[i], 1) << "threads=" << threads << " chunk=" << chunk
                                << " index=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, DynamicHandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  bool ran = false;
  pool.ParallelForDynamic(0, 1, [&ran](size_t, int) { ran = true; });
  EXPECT_FALSE(ran);

  // n == 1 runs inline on the caller (lane 0), no dispatch.
  int lane_seen = -1;
  size_t index_seen = 99;
  pool.ParallelForDynamic(1, 16, [&](size_t i, int lane) {
    index_seen = i;
    lane_seen = lane;
  });
  EXPECT_EQ(index_seen, 0u);
  EXPECT_EQ(lane_seen, 0);

  // More lanes than indices: every index still visited exactly once.
  const std::vector<int> counts = CountVisits(&pool, 3, 1);
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(ThreadPoolTest, DynamicStressTinyChunks) {
  // TSan target: many back-to-back dynamic jobs with unit chunks maximize
  // contention on the claim cursor and on the job publish/complete
  // handshake. Any missing synchronization in the cursor protocol shows up
  // here as a data race or a lost/duplicated index.
  ThreadPool pool(8);
  const size_t n = 257;  // Prime-ish: last chunk short, uneven claims.
  std::vector<std::unique_ptr<std::atomic<int>>> hits(n);
  for (auto& h : hits) h = std::make_unique<std::atomic<int>>(0);
  for (int round = 0; round < 200; ++round) {
    pool.ParallelForDynamic(n, 1, [&hits](size_t i, int) {
      hits[i]->fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i]->load(), 200) << "index " << i;
  }
}

TEST(ThreadPoolTest, BackToBackJobsDoNotLeakJobState) {
  // Consecutive jobs share the worker loop and the job fields, so job state
  // must not leak from one job into the next while the range length and
  // the chunk width alternate. Every job visits its own range exactly once
  // (a claim cursor or a length left from the job before would skip or
  // overrun it), and a job of one chunk runs on one lane (a unit chunk
  // width left from the job before would spread it: its first index sleeps
  // while the other lanes could claim the rest).
  ThreadPool pool(3);
  for (int round = 0; round < 10; ++round) {
    const size_t n = 50 + static_cast<size_t>(round);
    for (const auto& [length, chunk] :
         {std::pair<size_t, size_t>{n, (round % 5) + 1},
          std::pair<size_t, size_t>{2 * n + 1, 64 + round % 3},
          std::pair<size_t, size_t>{n / 2, 1}}) {
      const std::vector<int> counts = CountVisits(&pool, length, chunk);
      for (size_t i = 0; i < length; ++i) {
        ASSERT_EQ(counts[i], 1) << "round " << round << " n " << length
                                << " chunk " << chunk << " index " << i;
      }
    }
    std::vector<int> lanes(8, -1);
    pool.ParallelForDynamic(lanes.size(), lanes.size(),
                            [&lanes](size_t i, int lane) {
                              if (i == 0) {
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(5));
                              }
                              lanes[i] = lane;
                            });
    for (int lane : lanes) ASSERT_EQ(lane, lanes[0]) << "round " << round;
  }
}

}  // namespace
}  // namespace rfid
