#include "model/world_model.h"

namespace rfid {

WorldModel::WorldModel(std::unique_ptr<SensorModel> sensor, MotionModel motion,
                       LocationSensingModel sensing,
                       ObjectLocationModel objects,
                       std::vector<ShelfTag> shelf_tags)
    : sensor_(std::move(sensor)),
      motion_(motion),
      sensing_(sensing),
      objects_(std::move(objects)),
      shelf_tags_(std::move(shelf_tags)) {
  RebuildShelfTagIndex();
}

WorldModel::WorldModel(const WorldModel& other)
    : sensor_(other.sensor_->Clone()),
      motion_(other.motion_),
      sensing_(other.sensing_),
      objects_(other.objects_),
      shelf_tags_(other.shelf_tags_),
      shelf_tag_index_(other.shelf_tag_index_) {}

WorldModel& WorldModel::operator=(const WorldModel& other) {
  if (this == &other) return *this;
  sensor_ = other.sensor_->Clone();
  motion_ = other.motion_;
  sensing_ = other.sensing_;
  objects_ = other.objects_;
  shelf_tags_ = other.shelf_tags_;
  shelf_tag_index_ = other.shelf_tag_index_;
  return *this;
}

void WorldModel::SetSensor(std::unique_ptr<SensorModel> sensor) {
  sensor_ = std::move(sensor);
}

void WorldModel::RebuildShelfTagIndex() {
  shelf_tag_index_.clear();
  for (size_t i = 0; i < shelf_tags_.size(); ++i) {
    shelf_tag_index_[shelf_tags_[i].tag] = i;
  }
}

const ShelfTag* WorldModel::FindShelfTag(TagId tag) const {
  auto it = shelf_tag_index_.find(tag);
  if (it == shelf_tag_index_.end()) return nullptr;
  return &shelf_tags_[it->second];
}

bool WorldModel::IsShelfTag(TagId tag, Vec3* location) const {
  auto it = shelf_tag_index_.find(tag);
  if (it == shelf_tag_index_.end()) return false;
  if (location != nullptr) *location = shelf_tags_[it->second].location;
  return true;
}

void WorldModel::ShelfTagsNear(const Vec3& position,
                               std::vector<const ShelfTag*>* out) const {
  out->clear();
  const double range = sensor_->MaxRange();
  const double range_sq = range * range;
  for (const ShelfTag& s : shelf_tags_) {
    if ((s.location - position).NormSq() <= range_sq) out->push_back(&s);
  }
}

}  // namespace rfid
