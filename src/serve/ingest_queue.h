// Bounded multi-producer ingest queue, one per shard.
//
// Producers are network receivers / client threads calling
// StreamingServer::Ingest from anywhere; the single consumer is the pump
// sweep, which pops every shard on the pumping thread. Capacity is bounded
// so a shard that falls behind pushes back on its producers instead of
// growing without limit; the stats record how often that backpressure
// actually engaged (blocked pushes / rejected records and the occupancy
// high-water mark), which is the first thing to look at when sizing shards.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "obs/metrics.h"
#include "serve/record.h"
#include "util/thread_annotations.h"

namespace rfid {

/// Lifetime counters: monotonic since queue construction. Close()/Reopen()
/// (the server's Stop()/Start() cycle) never reset them, so scrape deltas
/// across a restart stay meaningful.
struct IngestQueueStats {
  uint64_t pushed = 0;
  uint64_t popped = 0;
  /// Times a blocking Push found the queue full and had to wait.
  uint64_t blocked_pushes = 0;
  /// TryPush calls rejected because the queue was full.
  uint64_t rejected_full = 0;
  /// Pushes rejected because the queue was closed (records arriving during
  /// or after Stop()). Previously these returned false uncounted — the one
  /// drop class that was invisible to stats.
  uint64_t rejected_closed = 0;
  /// Maximum occupancy ever observed.
  uint64_t high_water = 0;
  /// Pushes dropped by the kQueueEnqueue fault point (chaos testing only;
  /// always 0 without an installed injector).
  uint64_t injected_drops = 0;
};

class IngestQueue {
 public:
  explicit IngestQueue(size_t capacity);

  /// Wires this queue's telemetry into `registry` as shard `shard`: an
  /// enqueue-latency histogram (lock wait + blocking time), an occupancy
  /// gauge, and mirrors of the drop counters. Call once, before traffic.
  void BindMetrics(obs::MetricsRegistry* registry, int shard);

  /// Blocks while the queue is full (backpressure). Returns false only when
  /// the queue was closed.
  bool Push(const ServeRecord& record);

  /// Non-blocking variant: returns false (and counts the rejection) when the
  /// queue is full or closed.
  bool TryPush(const ServeRecord& record);

  /// Moves up to `max_records` into `out` (cleared first). Non-blocking.
  size_t PopBatch(std::vector<ServeRecord>* out, size_t max_records);

  /// Wakes blocked producers; subsequent pushes fail.
  void Close();
  /// Reverses Close() (server restart: Stop() closes, Start() reopens).
  void Reopen();

  size_t size() const;
  IngestQueueStats Stats() const;

 private:
  /// Counts one accepted push and publishes occupancy.
  void NoteAccepted() RFID_REQUIRES(mu_);

  const size_t capacity_;
  mutable Mutex mu_;
  CondVar not_full_;
  std::deque<ServeRecord> items_ RFID_GUARDED_BY(mu_);
  IngestQueueStats stats_ RFID_GUARDED_BY(mu_);
  bool closed_ RFID_GUARDED_BY(mu_) = false;
  // --- Telemetry handles: written once by BindMetrics before any traffic,
  // then read-only (each points at sharded-atomic metric cells, so the
  // writes through them need no lock either). Deliberately unguarded. ---
  obs::Histogram* enqueue_latency_ = nullptr;
  obs::Gauge* occupancy_ = nullptr;
  obs::Counter* dropped_full_ = nullptr;
  obs::Counter* dropped_closed_ = nullptr;
};

}  // namespace rfid
