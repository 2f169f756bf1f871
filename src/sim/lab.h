// Emulation of the paper's real RFID lab deployment (§V-C, Fig. 6): two
// parallel rows of EPC Gen2 tags four inches apart, five reference tags per
// row, and a robot-mounted bi-static antenna that scans one row, turns
// around, and scans the other at 0.1 ft/s with one interrogation per second.
// The robot localizes by dead reckoning, drifting up to ~1 ft from its true
// position by the end of a run.
//
// Substitution note: the physical robot/antenna are replaced
// by a trace generator with a spherical antenna pattern whose peak read rate
// and effective range grow with the reader timeout setting, reproducing the
// timeout sensitivity the paper measures.
#pragma once

#include "model/spherical_sensor.h"
#include "sim/trace.h"
#include "util/status.h"

namespace rfid {

struct LabConfig {
  double timeout_ms = 250.0;  ///< ThingMagic reader timeout (250/500/750).
  /// Depth of the "imagined shelf" behind each tag row: 0.66 ft for the
  /// paper's small shelf (SS), 2.6 ft for the large shelf (LS).
  double shelf_depth = 0.66;

  int tags_per_row = 40;           ///< 80 total across both rows.
  int reference_tags_per_row = 5;  ///< Known-location (shelf) tags.
  double tag_spacing = 1.0 / 3.0;  ///< Four inches.
  double row_x = 1.0;              ///< Rows at x = +row_x and x = -row_x.

  double robot_speed = 0.1;        ///< ft per epoch (1 s epochs).
  double start_margin = 1.5;

  /// Dead-reckoning drift: per-epoch systematic slip along the direction of
  /// travel plus random jitter. Accumulates to ~1 ft over a full run.
  double drift_per_epoch = 0.0035;
  double drift_jitter = 0.01;

  uint64_t seed = 11;
};

/// Everything a benchmark needs to evaluate algorithms on the lab scenario.
struct LabDeployment {
  LabConfig config;
  SphericalSensorModel sensor;         ///< Ground-truth antenna pattern.
  std::vector<ShelfTag> shelf_tags;    ///< Reference tags, known locations.
  std::vector<Aabb> shelf_boxes;       ///< Imagined shelf regions.
  std::vector<ObjectPlacement> objects;
  SimulatedTrace trace;

  ShelfRegions MakeShelfRegions() const { return ShelfRegions(shelf_boxes); }
};

/// Builds the deployment and generates its trace.
Result<LabDeployment> BuildLabDeployment(const LabConfig& config);

}  // namespace rfid
