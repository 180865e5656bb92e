#include "rt/scene.hpp"

#include <stdexcept>

#include "common/parallel.hpp"
#include "rt/tessellate.hpp"

namespace rtd::rt {

SphereAccel::SphereAccel(std::vector<geom::Vec3> centers, float radius,
                         int threads)
    : centers_(std::move(centers)), radius_(radius) {
  if (radius <= 0.0f) {
    throw std::invalid_argument("SphereAccel: radius must be positive");
  }
  std::vector<geom::Aabb> bounds(centers_.size());
  parallel_for(centers_.size(), threads, [&](std::size_t i) {
    bounds[i] = geom::Aabb::of_sphere(centers_[i], radius_);
  });
  bvh_ = build_bvh(bounds, threads);
  wide_ = collapse_bvh(bvh_);
}

void SphereAccel::set_radius(float radius, int threads) {
  if (radius <= 0.0f) {
    throw std::invalid_argument("SphereAccel: radius must be positive");
  }
  radius_ = radius;
  std::vector<geom::Aabb> bounds(centers_.size());
  parallel_for(centers_.size(), threads, [&](std::size_t i) {
    bounds[i] = geom::Aabb::of_sphere(centers_[i], radius_);
  });
  bvh_.refit(bounds);
  // The wide layout shares the binary topology, so a refit replays in place
  // (no re-collapse).
  wide_.refit_from(bvh_);
}

void SphereAccel::refit_live(std::span<const std::uint8_t> dead,
                             int threads) {
  std::vector<geom::Aabb> bounds(centers_.size());
  parallel_for(centers_.size(), threads, [&](std::size_t i) {
    bounds[i] = geom::Aabb::of_sphere(centers_[i], radius_);
  });
  bvh_.refit(bounds, dead);
  wide_.refit_from(bvh_);
}

TriangleAccel::TriangleAccel(std::vector<geom::Triangle> triangles,
                             std::vector<std::uint32_t> owners,
                             int threads)
    : triangles_(std::move(triangles)), owners_(std::move(owners)) {
  if (triangles_.size() != owners_.size()) {
    throw std::invalid_argument(
        "TriangleAccel: one owner id required per triangle");
  }
  build(threads);
}

TriangleAccel::TriangleAccel(std::span<const geom::Vec3> centers,
                             float radius, int subdivisions, int threads)
    : centers_(centers.begin(), centers.end()),
      radius_(radius),
      rescalable_(true) {
  TessellatedSpheres mesh =
      tessellate_spheres(centers, radius, subdivisions, threads);
  triangles_ = std::move(mesh.triangles);
  owners_ = std::move(mesh.owners);
  scale_ = mesh.scale;
  build(threads);
}

void TriangleAccel::build(int threads) {
  std::vector<geom::Aabb> bounds(triangles_.size());
  parallel_for(triangles_.size(), threads, [&](std::size_t i) {
    bounds[i] = triangles_[i].bounds();
  });
  bvh_ = build_bvh(bounds, threads);
  wide_ = collapse_bvh(bvh_);
}

void TriangleAccel::set_radius(float radius, int threads) {
  if (!rescalable()) {
    throw std::logic_error(
        "TriangleAccel: set_radius requires the tessellating constructor "
        "(arbitrary triangle sets have no centers to rescale about)");
  }
  if (radius <= 0.0f) {
    throw std::invalid_argument("TriangleAccel: radius must be positive");
  }
  if (radius == radius_) return;
  // The tessellation is linear in the radius: every vertex sits at
  // center + unit_vertex * scale, so scaling about the owning center moves
  // it to the new radius exactly — same vertices tessellate_spheres() would
  // emit, no retessellation.  Topology depends only on the centers and the
  // subdivision level, so the BVH refits in place.
  const float factor = radius / radius_;
  parallel_for(triangles_.size(), threads, [&](std::size_t i) {
    const geom::Vec3 c = centers_[owners_[i]];
    geom::Triangle& t = triangles_[i];
    t.a = c + (t.a - c) * factor;
    t.b = c + (t.b - c) * factor;
    t.c = c + (t.c - c) * factor;
  });
  radius_ = radius;
  scale_ *= factor;
  std::vector<geom::Aabb> bounds(triangles_.size());
  parallel_for(triangles_.size(), threads, [&](std::size_t i) {
    bounds[i] = triangles_[i].bounds();
  });
  bvh_.refit(bounds);
  wide_.refit_from(bvh_);
}

}  // namespace rtd::rt
