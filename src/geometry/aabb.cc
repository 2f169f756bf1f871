#include "geometry/aabb.h"

namespace rfid {

Aabb Aabb::FromCenterRadius(const Vec3& c, double r, double rz) {
  return Aabb({c.x - r, c.y - r, c.z - rz}, {c.x + r, c.y + r, c.z + rz});
}

void Aabb::Extend(const Vec3& p) {
  min.x = std::min(min.x, p.x);
  min.y = std::min(min.y, p.y);
  min.z = std::min(min.z, p.z);
  max.x = std::max(max.x, p.x);
  max.y = std::max(max.y, p.y);
  max.z = std::max(max.z, p.z);
}

void Aabb::Extend(const Aabb& other) {
  if (other.IsEmpty()) return;
  Extend(other.min);
  Extend(other.max);
}

bool Aabb::Intersects(const Aabb& other) const {
  if (IsEmpty() || other.IsEmpty()) return false;
  return min.x <= other.max.x && max.x >= other.min.x && min.y <= other.max.y &&
         max.y >= other.min.y && min.z <= other.max.z && max.z >= other.min.z;
}

Aabb Aabb::Intersection(const Aabb& other) const {
  if (!Intersects(other)) return Aabb::Empty();
  return Aabb({std::max(min.x, other.min.x), std::max(min.y, other.min.y),
               std::max(min.z, other.min.z)},
              {std::min(max.x, other.max.x), std::min(max.y, other.max.y),
               std::min(max.z, other.max.z)});
}

double Aabb::Volume() const {
  if (IsEmpty()) return 0.0;
  const Vec3 e = Extent();
  return e.x * e.y * e.z;
}

double Aabb::Margin() const {
  if (IsEmpty()) return 0.0;
  const Vec3 e = Extent();
  return e.x + e.y + e.z;
}

double Aabb::OverlapVolume(const Aabb& other) const {
  return Intersection(other).Volume();
}

double Aabb::Enlargement(const Aabb& other) const {
  Aabb merged = *this;
  merged.Extend(other);
  return merged.Volume() - Volume();
}

std::ostream& operator<<(std::ostream& os, const Aabb& b) {
  return os << '[' << b.min << " .. " << b.max << ']';
}

}  // namespace rfid
