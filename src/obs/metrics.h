// Always-on metrics registry: named counters, gauges and log-bucketed
// latency histograms, rendered as Prometheus text exposition or JSON.
//
// Design constraints, in order:
//  1. The hot path pays ~one relaxed atomic store per sample. Counter and
//     histogram cells are sharded per thread (cache-line padded, indexed by
//     a thread-local id) and written with relaxed fetch_add; aggregation
//     happens only at scrape time. Same discipline as the fault points of
//     util/fault.h: compiled in permanently, near-zero when idle, gated by
//     a bench (see PERF.md "Instrumentation overhead").
//  2. Telemetry must never perturb inference: no metric touches an RNG
//     stream or reorders events, so the determinism sweep is bit-identical
//     with telemetry enabled or disabled. SetTelemetryEnabled(false) is a
//     kill switch (one relaxed load per sample site), not a correctness
//     lever.
//  3. Handles are resolved once (GetCounter/GetGauge/GetHistogram under a
//     mutex at wiring time) and then used lock-free forever; metric objects
//     have stable addresses for the registry's lifetime.
//
// A registry is an instance — the StreamingServer owns one per server so
// scrapes and tests stay isolated — with a process-wide Default() for
// standalone components.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/stopwatch.h"
#include "util/thread_annotations.h"

namespace rfid {
namespace obs {

/// Process-wide telemetry gate. Enabled by default (always-on telemetry);
/// disabling reduces every latency/gauge sample site to one relaxed load
/// and skips the clock reads that feed histograms. Counters are NOT gated:
/// they back the stats surfaces (ServeStats, scrape deltas) and must stay
/// monotonic and truthful regardless of the switch — one relaxed fetch_add
/// is their entire cost either way. Flip only around controlled
/// measurements (the overhead bench).
void SetTelemetryEnabled(bool enabled);
bool TelemetryEnabled();

/// Per-thread shard count for counter/histogram cells. Power of two; a
/// thread-local id picks the cell, so concurrent writers on different
/// threads almost never contend on a cache line.
constexpr size_t kMetricShards = 16;

/// Index of the calling thread's cell (thread-local, assigned on first use).
size_t MetricShardIndex();

/// Monotonic counter. Add() is wait-free: one relaxed fetch_add on the
/// caller's shard cell. Not gated by the telemetry switch (see above).
class Counter {
 public:
  void Add(uint64_t n = 1) {
    cells_[MetricShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  Cell cells_[kMetricShards];
};

/// Last-writer-wins gauge (queue occupancy, ...). Stored as the bit
/// pattern of a double in one atomic cell.
class Gauge {
 public:
  void Set(double value) {
    if (!TelemetryEnabled()) return;
    bits_.store(Encode(value), std::memory_order_relaxed);
  }
  double Value() const { return Decode(bits_.load(std::memory_order_relaxed)); }

 private:
  static uint64_t Encode(double v);
  static double Decode(uint64_t bits);
  std::atomic<uint64_t> bits_{0};
};

/// Log-bucketed latency histogram over seconds. Bucket i's upper bound is
/// kFirstBoundSeconds * 2^i (1 µs, 2 µs, ... ~134 s), plus a +Inf overflow
/// bucket; values <= the first bound land in bucket 0. Observe() costs one
/// bucket-index computation plus two relaxed fetch_adds on the caller's
/// shard (bucket count and nanosecond sum); count is derived from the
/// buckets at scrape time.
class Histogram {
 public:
  static constexpr double kFirstBoundSeconds = 1e-6;
  /// Finite bucket bounds; bucket kNumBounds is the +Inf overflow.
  static constexpr int kNumBounds = 28;
  static constexpr int kNumBuckets = kNumBounds + 1;

  /// Upper bound of finite bucket `i` in seconds.
  static double BucketBound(int i);
  /// Bucket index for one observation (negative/zero values clamp to 0).
  static int BucketIndex(double seconds);

  void Observe(double seconds) {
    if (!TelemetryEnabled()) return;
    Cell& cell = cells_[MetricShardIndex()];
    cell.buckets[BucketIndex(seconds)].fetch_add(1, std::memory_order_relaxed);
    const double ns = seconds > 0 ? seconds * 1e9 : 0.0;
    cell.sum_ns.fetch_add(static_cast<uint64_t>(ns + 0.5),
                          std::memory_order_relaxed);
  }

  struct Snapshot {
    uint64_t count = 0;
    double sum_seconds = 0.0;
    /// Per-bucket (non-cumulative) counts, index kNumBounds = overflow.
    uint64_t buckets[kNumBuckets] = {};
  };
  Snapshot Snap() const;

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> buckets[kNumBuckets] = {};
    std::atomic<uint64_t> sum_ns{0};
  };
  Cell cells_[kMetricShards];
};

/// Named metric registry. Get* registers on first use (mutex held only
/// there) and returns a stable pointer; `labels` is a preformatted
/// Prometheus label body, e.g. `stage="weight"` — the pair (name, labels)
/// identifies the time series.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry for components not owned by a server.
  static MetricsRegistry& Default();

  Counter* GetCounter(const std::string& name, const std::string& labels = "");
  Gauge* GetGauge(const std::string& name, const std::string& labels = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& labels = "");

  /// Prometheus text exposition (one # TYPE line per metric family,
  /// series sorted by name then labels).
  std::string RenderPrometheus() const;
  /// The same data as one JSON object:
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string RenderJson() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  /// One (name, labels) series. `kind` is pinned by the FIRST registration
  /// and drives the family's # TYPE line; later Get* calls of a different
  /// kind on the same key get their own object (rendering emits every
  /// non-null object, so a mixed-kind collision shows both series instead
  /// of silently dropping the first-registered one — which is what the old
  /// "last Get* wins" kind assignment did).
  struct Entry {
    Kind kind = Kind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;

    bool empty() const { return !counter && !gauge && !histogram; }
  };
  /// Keyed (name, labels) so rendering iterates families contiguously.
  using Key = std::pair<std::string, std::string>;

  mutable Mutex mu_;
  std::map<Key, Entry> entries_ RFID_GUARDED_BY(mu_);
};

/// Scoped latency sample into a histogram: reads the clock only when
/// telemetry is enabled and the histogram is non-null. Stop() observes
/// early; the destructor observes if Stop() was never called.
class LatencyTimer {
 public:
  explicit LatencyTimer(Histogram* histogram)
      : histogram_(histogram),
        start_ns_(histogram != nullptr && TelemetryEnabled()
                      ? MonotonicNanos()
                      : 0) {}
  ~LatencyTimer() { Stop(); }
  LatencyTimer(const LatencyTimer&) = delete;
  LatencyTimer& operator=(const LatencyTimer&) = delete;

  void Stop() {
    if (start_ns_ == 0) return;
    histogram_->Observe(static_cast<double>(MonotonicNanos() - start_ns_) *
                        1e-9);
    start_ns_ = 0;
  }

 private:
  Histogram* histogram_;
  uint64_t start_ns_;
};

}  // namespace obs
}  // namespace rfid
