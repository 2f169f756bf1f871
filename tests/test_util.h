// Shared test helpers: tiny worlds, scripted epochs, and offline
// synchronization of raw streams.
#pragma once

#include <memory>
#include <vector>

#include "model/cone_sensor.h"
#include "model/world_model.h"
#include "stream/readings.h"
#include "stream/synchronizer.h"

namespace rfid {
namespace testing_util {

/// A single 10-ft shelf at x in [1.5, 2.5] with two shelf tags, scanned from
/// the aisle at x = 0. Sensor defaults to the cone (max range 4.5 ft).
inline WorldModel MakeLineWorld(
    double move_probability = 1e-4, Vec3 sensing_mu = {},
    Vec3 sensing_sigma = {0.01, 0.01, 0.0},
    std::unique_ptr<SensorModel> sensor = std::make_unique<ConeSensorModel>()) {
  MotionModelParams motion;
  motion.delta = {0.0, 0.1, 0.0};
  motion.sigma = {0.02, 0.02, 0.0};
  LocationSensingParams sensing;
  sensing.mu = sensing_mu;
  sensing.sigma = sensing_sigma;
  ObjectModelParams om;
  om.move_probability = move_probability;
  std::vector<ShelfTag> shelf_tags = {{1, {1.5, 2.5, 0.0}},
                                      {2, {1.5, 7.5, 0.0}}};
  return WorldModel(
      std::move(sensor), MotionModel(motion),
      LocationSensingModel(sensing),
      ObjectLocationModel(om, ShelfRegions({Aabb({1.5, 0, 0}, {2.5, 10, 0})})),
      std::move(shelf_tags));
}

/// Builds one epoch at reader position (0, y) reporting `tags` as read.
inline SyncedEpoch MakeEpoch(int64_t step, double y, std::vector<TagId> tags,
                             double reported_offset_y = 0.0) {
  SyncedEpoch e;
  e.step = step;
  e.time = static_cast<double>(step);
  e.tags = std::move(tags);
  e.has_location = true;
  e.reported_location = {0.0, y + reported_offset_y, 0.0};
  return e;
}

/// Offline synchronization: pushes both raw streams through `sync`, each in
/// its own order and the two merged by their head times (time order when
/// each stream is sorted), then flushes every epoch.
inline std::vector<SyncedEpoch> SynchronizeAll(
    StreamSynchronizer* sync, const std::vector<TagReading>& readings,
    const std::vector<ReaderLocationReport>& reports) {
  size_t r = 0, l = 0;
  while (r < readings.size() || l < reports.size()) {
    if (l == reports.size() ||
        (r < readings.size() && readings[r].time <= reports[l].time)) {
      sync->Push(readings[r++]);
    } else {
      sync->Push(reports[l++]);
    }
  }
  return sync->Finish();
}

}  // namespace testing_util
}  // namespace rfid
