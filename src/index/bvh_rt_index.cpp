#include "index/bvh_rt_index.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "geom/ray.hpp"

namespace rtd::index {

BvhRtIndex::BvhRtIndex(std::span<const geom::Vec3> points, float eps,
                       const rt::Context::Options& options)
    : ctx_(options),
      accel_(std::make_shared<rt::SphereAccel>(ctx_.build_spheres(
          std::vector<geom::Vec3>(points.begin(), points.end()), eps))),
      points_(points),
      built_count_(points.size()),
      tail_(points.size()) {}

bool BvhRtIndex::do_try_remove(std::span<const std::uint32_t> ids) {
  removed_since_refit_ += ids.size();
  if (removed_since_refit_ >= refit_threshold() && built_count_ > 0) {
    accel_.mut().refit_live(dead_mask());
    removed_since_refit_ = 0;
  }
  return true;
}

void BvhRtIndex::require_radius(float eps) const {
  if (eps != accel_->radius()) {
    throw std::invalid_argument(
        "BvhRtIndex: query eps " + std::to_string(eps) +
        " differs from the scene radius " + std::to_string(accel_->radius()) +
        " (the radius is baked into the sphere geometry; use set_radius to "
        "refit)");
  }
}

void BvhRtIndex::query_sphere(const geom::Vec3& center, float eps,
                              std::uint32_t self, NeighborVisitor visit,
                              rt::TraversalStats& stats) const {
  require_radius(eps);
  const rt::SphereAccel& accel = *accel_;
  const geom::Ray ray = geom::Ray::point_query(center);
  accel.trace(
      ray,
      [&](std::uint32_t prim) {
        // Intersection program: exact point-in-sphere test (Alg. 2 line 6).
        if (prim != self && !is_dead(prim) && accel.origin_inside(ray, prim)) {
          visit(prim);
        }
      },
      stats);
  // Delta tail (incremental inserts since the scene build): same exact
  // test, identical set semantics.
  const float eps2 = eps * eps;
  scan_tail(geom::Aabb::of_sphere(center, eps), stats, [&](std::uint32_t j) {
    if (j != self && geom::distance_squared(center, points_[j]) <= eps2) {
      visit(j);
    }
  });
}

std::uint32_t BvhRtIndex::query_count(const geom::Vec3& center, float eps,
                                      std::uint32_t self,
                                      rt::TraversalStats& stats,
                                      std::uint32_t stop_at) const {
  (void)stop_at;  // OptiX: traversal cannot terminate early (§VI-B)
  require_radius(eps);
  const rt::SphereAccel& accel = *accel_;
  const geom::Ray ray = geom::Ray::point_query(center);
  std::uint32_t count = 0;
  accel.trace(
      ray,
      [&](std::uint32_t prim) {
        if (prim != self && !is_dead(prim) && accel.origin_inside(ray, prim)) {
          ++count;
        }
      },
      stats);
  const float eps2 = eps * eps;
  scan_tail(geom::Aabb::of_sphere(center, eps), stats, [&](std::uint32_t j) {
    if (j != self && geom::distance_squared(center, points_[j]) <= eps2) {
      ++count;
    }
  });
  return count;
}

void BvhRtIndex::query_box(const geom::Aabb& box, NeighborVisitor visit,
                           rt::TraversalStats& stats) const {
  // The sphere-scene BVH stores ε-inflated leaf boxes, so the traversal
  // surfaces a superset; the exact point-in-box filter runs here.
  const rt::SphereAccel& accel = *accel_;
  const auto& centers = accel.centers();
  rt::traverse_overlap(
      accel.bvh(), accel.wide_bvh(), box,
      [&](std::uint32_t prim) {
        ++stats.isect_calls;
        if (!is_dead(prim) && box.contains(centers[prim])) visit(prim);
        return rt::TraversalControl::kContinue;
      },
      stats);
  scan_tail(box, stats, [&](std::uint32_t j) {
    if (box.contains(points_[j])) visit(j);
  });
}

}  // namespace rtd::index
