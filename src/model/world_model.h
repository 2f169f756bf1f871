// The joint data-generation model (paper §III-B, Eq. 2): bundles the four
// component models plus the shelf-tag map (tags at known, fixed locations).
//
//   p(R, R^, O, O^ | S) = p(R1, O1) * prod_t p(R_t|R_{t-1}) p(R^_t|R_t)
//       * prod_{i in O} p(O_ti|O_{t-1,i}) p(O^_ti|R_t, O_ti)
//       * prod_{i in S} p(S^_ti|R_t, S_i)
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "model/location_sensing.h"
#include "model/motion_model.h"
#include "model/object_model.h"
#include "model/sensor_model.h"
#include "stream/readings.h"
#include "util/status.h"

namespace rfid {

/// A shelf tag: fixed, known location (paper assumes shelf-tag locations are
/// known a priori).
struct ShelfTag {
  TagId tag = 0;
  Vec3 location;
};

/// Immutable-after-build description of the generative model. The inference
/// engine, the EM calibrator, and the simulator all consume this type.
class WorldModel {
 public:
  WorldModel(std::unique_ptr<SensorModel> sensor, MotionModel motion,
             LocationSensingModel sensing, ObjectLocationModel objects,
             std::vector<ShelfTag> shelf_tags);

  WorldModel(const WorldModel& other);
  WorldModel& operator=(const WorldModel& other);
  WorldModel(WorldModel&&) = default;
  WorldModel& operator=(WorldModel&&) = default;

  const SensorModel& sensor() const { return *sensor_; }
  const MotionModel& motion() const { return motion_; }
  const LocationSensingModel& location_sensing() const { return sensing_; }
  const ObjectLocationModel& object_model() const { return objects_; }
  const std::vector<ShelfTag>& shelf_tags() const { return shelf_tags_; }

  /// Replaces the sensor model (used by EM between iterations).
  void SetSensor(std::unique_ptr<SensorModel> sensor);
  void SetMotion(const MotionModel& m) { motion_ = m; }
  void SetLocationSensing(const LocationSensingModel& s) { sensing_ = s; }

  /// True if `tag` is a shelf tag; fills `location` when non-null.
  bool IsShelfTag(TagId tag, Vec3* location = nullptr) const;

  /// Canonical entry for a shelf tag, or nullptr if `tag` is an object tag.
  const ShelfTag* FindShelfTag(TagId tag) const;

  /// Replaces `*out` with the shelf tags within `sensor().MaxRange()` of
  /// `position`, reusing its storage. Used to restrict the reader-weighting
  /// product to tags that carry information.
  void ShelfTagsNear(const Vec3& position,
                     std::vector<const ShelfTag*>* out) const;

 private:
  void RebuildShelfTagIndex();

  std::unique_ptr<SensorModel> sensor_;
  MotionModel motion_;
  LocationSensingModel sensing_;
  ObjectLocationModel objects_;
  std::vector<ShelfTag> shelf_tags_;
  std::unordered_map<TagId, size_t> shelf_tag_index_;
};

}  // namespace rfid
