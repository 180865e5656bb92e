// 3-component float vector, the coordinate type of the whole system.
//
// RT cores (and this simulator) operate on float32 3-D coordinates; 2-D
// datasets are embedded at z = 0 exactly as the paper does (§IV).
#pragma once

#include <cmath>
#include <cstddef>
#include <ostream>

namespace rtd::geom {

struct Vec3 {
  float x = 0.0f;
  float y = 0.0f;
  float z = 0.0f;

  constexpr Vec3() = default;
  constexpr Vec3(float x_, float y_, float z_) : x(x_), y(y_), z(z_) {}

  /// 2-D constructor: embeds at z = 0 (paper §IV: "we set the z-dimension to
  /// 0 for 2D datasets").
  static constexpr Vec3 xy(float x_, float y_) { return {x_, y_, 0.0f}; }

  constexpr float operator[](std::size_t i) const {
    return i == 0 ? x : (i == 1 ? y : z);
  }

  constexpr Vec3 operator+(const Vec3& o) const {
    return {x + o.x, y + o.y, z + o.z};
  }
  constexpr Vec3 operator-(const Vec3& o) const {
    return {x - o.x, y - o.y, z - o.z};
  }
  constexpr Vec3 operator*(float s) const { return {x * s, y * s, z * s}; }
  constexpr Vec3 operator/(float s) const { return {x / s, y / s, z / s}; }
  constexpr Vec3 operator-() const { return {-x, -y, -z}; }

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
  Vec3& operator*=(float s) {
    x *= s;
    y *= s;
    z *= s;
    return *this;
  }

  constexpr bool operator==(const Vec3& o) const {
    return x == o.x && y == o.y && z == o.z;
  }
};

constexpr Vec3 operator*(float s, const Vec3& v) { return v * s; }

constexpr float dot(const Vec3& a, const Vec3& b) {
  return a.x * b.x + a.y * b.y + a.z * b.z;
}

constexpr Vec3 cross(const Vec3& a, const Vec3& b) {
  return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z,
          a.x * b.y - a.y * b.x};
}

constexpr float length_squared(const Vec3& v) { return dot(v, v); }

inline float length(const Vec3& v) { return std::sqrt(length_squared(v)); }

inline Vec3 normalized(const Vec3& v) {
  const float len = length(v);
  return len > 0.0f ? v / len : Vec3{0.0f, 0.0f, 0.0f};
}

constexpr Vec3 min(const Vec3& a, const Vec3& b) {
  return {a.x < b.x ? a.x : b.x, a.y < b.y ? a.y : b.y,
          a.z < b.z ? a.z : b.z};
}

constexpr Vec3 max(const Vec3& a, const Vec3& b) {
  return {a.x > b.x ? a.x : b.x, a.y > b.y ? a.y : b.y,
          a.z > b.z ? a.z : b.z};
}

/// Squared Euclidean distance — the comparison DBSCAN actually needs.
/// dist(a, b) <= eps  <=>  distance_squared(a, b) <= eps * eps, avoiding the
/// sqrt on every candidate pair.
constexpr float distance_squared(const Vec3& a, const Vec3& b) {
  return length_squared(a - b);
}

inline float distance(const Vec3& a, const Vec3& b) {
  return std::sqrt(distance_squared(a, b));
}

/// All three coordinates are finite (no NaN/inf).  Non-finite coordinates
/// poison distance comparisons and BVH bounds, so the clustering entry
/// points reject them up front.
inline bool is_finite(const Vec3& v) {
  return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

/// A usable sphere radius / ε: positive and finite.  Written as the
/// accepting condition because NaN fails every comparison, so a
/// `radius <= 0` test would let NaN (and +inf) through.
inline bool is_valid_radius(float radius) {
  return radius > 0.0f && std::isfinite(radius);
}

inline std::ostream& operator<<(std::ostream& os, const Vec3& v) {
  return os << '(' << v.x << ", " << v.y << ", " << v.z << ')';
}

}  // namespace rtd::geom
