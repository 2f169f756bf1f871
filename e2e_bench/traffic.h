// Workload definitions of the end-to-end benchmark: which sites a server
// hosts, how its engines are configured, and the record stream it is fed.
//
// Every input is generated with the simulator (src/sim/) from the workload
// seed, so one (workload, seed) pair always yields the same records in the
// same send order. Stream sizes are fixed per workload and never derived
// from the run length, so every commit measures the same work. The program
// under test only ever sees those records through its public ingest API.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "serve/server.h"

namespace rfid {
namespace e2e {

enum class SensorKind { kCone, kSpherical };

/// One served site: its layout and the ground truth its estimates are
/// scored against (objects never move in these workloads).
struct Site {
  SiteId id = 0;
  WarehouseLayout layout;
  GroundTruth truth;
};

struct Workload {
  std::string name;
  SensorKind sensor = SensorKind::kCone;
  ExperimentModelOptions model_options;
  ServeConfig serve;
  std::vector<Site> sites;
  /// Records that bring the server to its steady state before measurement
  /// starts: every tag of the layout read and tracked, buffers grown.
  /// Processing them is part of set-up.
  std::vector<ServeRecord> prime;
  /// The measured stream, in send order; it continues the primed stream.
  std::vector<ServeRecord> records;
  /// Offered rates (records/s) of the two open-loop phases: at most a
  /// quarter and a half of what the closed loop sustains on a 4-core host.
  double low_rate = 0.0;
  double high_rate = 0.0;

  /// Fresh site specs (world models are move-only, so every server build
  /// gets its own).
  std::vector<SiteSpec> MakeSpecs() const;
  /// One site's world model, as the server builds it.
  WorldModel MakeModel(const Site& site) const;
};

/// Builds the named workload; `smoke` shrinks the sites and the stream for
/// a quick harness check.
Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              bool smoke);

}  // namespace e2e
}  // namespace rfid
