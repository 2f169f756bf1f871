// 2-D / 3-D vector types and a reader pose.
//
// The paper models object locations as (x, y, z) and the reader state as
// position plus a heading angle r^phi in the x-y plane (Table I).
#pragma once

#include <algorithm>
#include <cmath>
#include <ostream>

namespace rfid {

/// 3-D point / displacement with double components.
struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  constexpr Vec3() = default;
  constexpr Vec3(double x_, double y_, double z_ = 0.0) : x(x_), y(y_), z(z_) {}

  Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
  Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
  Vec3 operator/(double s) const { return {x / s, y / s, z / s}; }
  Vec3& operator+=(const Vec3& o) {
    x += o.x;
    y += o.y;
    z += o.z;
    return *this;
  }
  Vec3& operator-=(const Vec3& o) {
    x -= o.x;
    y -= o.y;
    z -= o.z;
    return *this;
  }
  Vec3& operator*=(double s) {
    x *= s;
    y *= s;
    z *= s;
    return *this;
  }
  Vec3 operator-() const { return {-x, -y, -z}; }
  bool operator==(const Vec3& o) const {
    return x == o.x && y == o.y && z == o.z;
  }

  double Dot(const Vec3& o) const { return x * o.x + y * o.y + z * o.z; }
  double NormSq() const { return Dot(*this); }
  double Norm() const { return std::sqrt(NormSq()); }
  /// Euclidean norm of the (x, y) projection.
  double NormXY() const { return std::hypot(x, y); }

  double DistanceTo(const Vec3& o) const { return (*this - o).Norm(); }
  /// Distance in the x-y plane only (the paper reports XY-plane error).
  double DistanceXYTo(const Vec3& o) const {
    return std::hypot(x - o.x, y - o.y);
  }
};

inline Vec3 operator*(double s, const Vec3& v) { return v * s; }

/// Width of one coordinate of a stored object-particle position: the
/// factored filter's particle store (pf/particle_soa.h), the sensor models'
/// gather kernels and the snapshot's particle runs. A position is rounded
/// to it once, when stored; every computation on it widens it to double
/// first.
using ParticleCoord = float;

inline std::ostream& operator<<(std::ostream& os, const Vec3& v) {
  return os << '(' << v.x << ", " << v.y << ", " << v.z << ')';
}

/// Wraps an angle to (-pi, pi].
inline double WrapAngle(double a) {
  constexpr double kTwoPi = 2.0 * M_PI;
  a = std::fmod(a + M_PI, kTwoPi);
  if (a < 0) a += kTwoPi;
  return a - M_PI;
}

/// Reader state: position plus heading angle phi in the x-y plane, matching
/// the paper's R_t = [r^x, r^y, r^z, r^phi].
struct Pose {
  Vec3 position;
  double heading = 0.0;  ///< Radians, measured from the +x axis.

  constexpr Pose() = default;
  Pose(Vec3 p, double phi) : position(p), heading(WrapAngle(phi)) {}

  /// Unit vector the reader antenna faces (in the x-y plane).
  Vec3 Facing() const { return {std::cos(heading), std::sin(heading), 0.0}; }
};

/// Distance d_ti and bearing angle theta_ti from reader to tag, exactly as
/// defined in paper §III-A:
///   delta = O_ti - [r^x, r^y, r^z]
///   d = |delta|
///   cos(theta) = delta_xy . [cos phi, sin phi] / d
struct RangeBearing {
  double distance = 0.0;
  double angle = 0.0;  ///< In [0, pi]; 0 means dead ahead.
};

inline RangeBearing ComputeRangeBearing(const Pose& reader, const Vec3& tag) {
  const Vec3 delta = tag - reader.position;
  RangeBearing rb;
  rb.distance = delta.Norm();
  if (rb.distance <= 1e-12) {
    rb.angle = 0.0;
    return rb;
  }
  const double cos_theta =
      (delta.x * std::cos(reader.heading) + delta.y * std::sin(reader.heading)) /
      rb.distance;
  rb.angle = std::acos(std::clamp(cos_theta, -1.0, 1.0));
  return rb;
}

}  // namespace rfid
