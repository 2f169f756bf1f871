// The measurement phases every workload runs, and the gates that check the
// program's outputs while they run.
//
// Untraced run (end-to-end metrics):
//   set-up        Create + the priming records, kSetups times. The first
//                 primed server is checkpointed, then takes the measured
//                 stream itself: never restored, it is the reference pass.
//   passes        kPasses fresh servers restored from that checkpoint, each
//                 driven inline (Ingest a block, Pump, repeat, Flush) over
//                 the measured stream and checkpointed at its midpoint.
// Every phase processes the same records, so every phase must produce the
// same per-site event stream (compared by digest), the same query outputs
// and the same exact work counters as the reference pass. Timed values are
// medians over a fixed number of repetitions.
//
// Traced run (per-layer metrics): the same phases with spans around every
// public call and an untraced pass after each traced one, then
//   open loop     the low rate, then the high rate, each on a fresh server
//                 driven by Start(); a generator thread sends each record at
//                 its scheduled time and a monitor scrapes stats once a
//                 second. Per-event latency is measured from the scheduled
//                 send time of the record that closed the event's epoch.
//   replay        the same records through the components SitePipeline
//                 wires together (StreamSynchronizer -> RfidInferenceEngine
//                 -> SubscriptionBus), whose digests and counters must equal
//                 the server's.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "traffic.h"

namespace rfid {
namespace e2e {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunResult {
  /// One line per violated gate; empty when every output gate held.
  std::vector<std::string> violations;
  /// False when the traced run's open-loop generator fell behind its
  /// schedule (gen.late_ms.p99 above the validity limit): latencies then
  /// include the generator's own stall.
  bool valid = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Exact, host-independent counters; equal for one seed on any host, in
  /// traced and untraced runs alike.
  std::vector<std::pair<std::string, uint64_t>> counters;
};

/// Runs every phase of `workload`. `out_dir` receives the checkpoint
/// directories (removed afterwards) and, when traced, trace_<name>.json.
RunResult RunWorkload(const Workload& workload, bool traced,
                      const std::string& out_dir);

}  // namespace e2e
}  // namespace rfid
