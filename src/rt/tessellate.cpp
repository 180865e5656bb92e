#include "rt/tessellate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/parallel.hpp"

namespace rtd::rt {

namespace {

using geom::Triangle;
using geom::Vec3;

std::vector<Triangle> icosahedron() {
  // Golden-ratio construction; vertices normalized to the unit sphere.
  const float phi = (1.0f + std::sqrt(5.0f)) / 2.0f;
  auto v = [&](float x, float y, float z) { return normalized(Vec3{x, y, z}); };
  const Vec3 verts[12] = {
      v(-1, phi, 0), v(1, phi, 0),  v(-1, -phi, 0), v(1, -phi, 0),
      v(0, -1, phi), v(0, 1, phi),  v(0, -1, -phi), v(0, 1, -phi),
      v(phi, 0, -1), v(phi, 0, 1),  v(-phi, 0, -1), v(-phi, 0, 1)};
  constexpr int faces[20][3] = {
      {0, 11, 5}, {0, 5, 1},   {0, 1, 7},   {0, 7, 10}, {0, 10, 11},
      {1, 5, 9},  {5, 11, 4},  {11, 10, 2}, {10, 7, 6}, {7, 1, 8},
      {3, 9, 4},  {3, 4, 2},   {3, 2, 6},   {3, 6, 8},  {3, 8, 9},
      {4, 9, 5},  {2, 4, 11},  {6, 2, 10},  {8, 6, 7},  {9, 8, 1}};
  std::vector<Triangle> tris;
  tris.reserve(20);
  for (const auto& f : faces) {
    tris.push_back({verts[f[0]], verts[f[1]], verts[f[2]]});
  }
  return tris;
}

std::vector<Triangle> subdivide(const std::vector<Triangle>& mesh) {
  std::vector<Triangle> out;
  out.reserve(mesh.size() * 4);
  for (const auto& t : mesh) {
    // Midpoints re-projected onto the unit sphere.
    const Vec3 ab = normalized((t.a + t.b) * 0.5f);
    const Vec3 bc = normalized((t.b + t.c) * 0.5f);
    const Vec3 ca = normalized((t.c + t.a) * 0.5f);
    out.push_back({t.a, ab, ca});
    out.push_back({t.b, bc, ab});
    out.push_back({t.c, ca, bc});
    out.push_back({ab, bc, ca});
  }
  return out;
}

}  // namespace

std::vector<Triangle> unit_icosphere(int subdivisions) {
  if (subdivisions < 0 || subdivisions > 4) {
    throw std::invalid_argument("unit_icosphere: subdivisions must be 0..4");
  }
  auto mesh = icosahedron();
  for (int s = 0; s < subdivisions; ++s) mesh = subdivide(mesh);
  return mesh;
}

float insphere_radius(std::span<const Triangle> unit_mesh) {
  if (unit_mesh.empty()) {
    throw std::invalid_argument("insphere_radius: empty mesh");
  }
  float min_dist = std::numeric_limits<float>::max();
  for (const auto& t : unit_mesh) {
    const Vec3 n = cross(t.b - t.a, t.c - t.a);
    const float len = length(n);
    // A zero-area face has no plane: its "distance" would be 0/0 = NaN,
    // which std::min silently drops — poisoning the scale factor every
    // BVH bound downstream depends on.  Reject the mesh instead.
    if (!(len > 0.0f) || !std::isfinite(len)) {
      throw std::invalid_argument(
          "insphere_radius: degenerate (zero-area or non-finite) face");
    }
    min_dist = std::min(min_dist, std::fabs(dot(n, t.a)) / len);
  }
  if (!(min_dist > 0.0f) || !std::isfinite(min_dist)) {
    throw std::invalid_argument(
        "insphere_radius: mesh does not enclose the origin");
  }
  return min_dist;
}

TessellatedSpheres tessellate_spheres(std::span<const Vec3> centers,
                                      float radius, int subdivisions,
                                      int threads) {
  // Degenerate-input guards: a non-positive (or NaN) radius, or an invalid
  // subdivision level, would otherwise emit NaN/inf vertex scale factors
  // that poison every BVH bound built over the mesh.
  if (!(radius > 0.0f) || !std::isfinite(radius)) {
    throw std::invalid_argument("tessellate_spheres: radius must be positive");
  }
  if (subdivisions < 0) {
    throw std::invalid_argument(
        "tessellate_spheres: subdivisions must be non-negative");
  }
  const auto unit = unit_icosphere(subdivisions);
  const float inradius = insphere_radius(unit);
  const float scale = radius / inradius;  // circumscribe the true sphere
  if (!(scale > 0.0f) || !std::isfinite(scale)) {
    throw std::invalid_argument(
        "tessellate_spheres: non-finite vertex scale");
  }

  // Empty centers fall through: the general path below yields a well-formed
  // empty tessellation with the metadata still populated (test-enforced).

  TessellatedSpheres out;
  out.triangles_per_sphere = static_cast<int>(unit.size());
  out.scale = scale;
  out.triangles.resize(centers.size() * unit.size());
  out.owners.resize(centers.size() * unit.size());

  parallel_for(centers.size(), threads, [&](std::size_t i) {
    const Vec3 c = centers[i];
    const std::size_t base = i * unit.size();
    for (std::size_t f = 0; f < unit.size(); ++f) {
      out.triangles[base + f] = Triangle{c + unit[f].a * scale,
                                         c + unit[f].b * scale,
                                         c + unit[f].c * scale};
      out.owners[base + f] = static_cast<std::uint32_t>(i);
    }
  });
  return out;
}

}  // namespace rtd::rt
