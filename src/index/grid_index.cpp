#include "index/grid_index.hpp"

#include <memory>
#include <stdexcept>
#include <string>

namespace rtd::index {

GridIndex::GridIndex(std::span<const geom::Vec3> points, float eps)
    : points_(points),
      eps_(eps),
      grid_(std::make_shared<const dbscan::GridIndex>(points, eps)) {}

void GridIndex::require_radius(float eps) const {
  if (eps > eps_) {
    throw std::invalid_argument(
        "GridIndex: query eps " + std::to_string(eps) +
        " exceeds build eps " + std::to_string(eps_) +
        " (one-ring guarantee)");
  }
}

void GridIndex::query_sphere(const geom::Vec3& center, float eps,
                             std::uint32_t self, NeighborVisitor visit,
                             rt::TraversalStats& stats) const {
  require_radius(eps);
  ++stats.rays;
  const float eps2 = eps * eps;
  grid_->for_candidates(center, [&](std::uint32_t j) {
    ++stats.isect_calls;
    if (j != self && !is_dead(j) &&
        geom::distance_squared(center, points_[j]) <= eps2) {
      visit(j);
    }
  });
}

std::uint32_t GridIndex::query_count(const geom::Vec3& center, float eps,
                                     std::uint32_t self,
                                     rt::TraversalStats& stats,
                                     std::uint32_t stop_at) const {
  require_radius(eps);
  ++stats.rays;
  if (stop_at == 0) return 0;
  const float eps2 = eps * eps;
  std::uint32_t count = 0;
  grid_->for_candidates_until(center, [&](std::uint32_t j) {
    ++stats.isect_calls;
    if (j != self && !is_dead(j) &&
        geom::distance_squared(center, points_[j]) <= eps2) {
      if (++count >= stop_at) return false;
    }
    return true;
  });
  return count;
}

void GridIndex::query_box(const geom::Aabb& box, NeighborVisitor visit,
                          rt::TraversalStats& stats) const {
  if (points_.empty()) {
    ++stats.rays;
    return;
  }
  // Clamp the walk to the occupied coordinate range; the exact filter
  // below still tests against the caller's box.
  const geom::Aabb& bounds = grid_->bounds();
  const geom::Vec3 lo = geom::max(box.lo, bounds.lo);
  const geom::Vec3 hi = geom::min(box.hi, bounds.hi);
  if (lo.x > hi.x || lo.y > hi.y || lo.z > hi.z) {
    ++stats.rays;
    return;
  }
  // Walking more cells than there are points is pointless (and the range
  // can be astronomically large on extreme-extent data): fall back to the
  // base linear scan when the cell walk cannot win.
  double span = 1.0;
  for (const float e : {hi.x - lo.x, hi.y - lo.y, hi.z - lo.z}) {
    span *= static_cast<double>(e) / static_cast<double>(grid_->cell_size()) +
            1.0;
  }
  if (span > static_cast<double>(points_.size()) + 1024.0) {
    NeighborIndex::query_box(box, visit, stats);
    return;
  }
  ++stats.rays;
  grid_->for_candidates_in_box(lo, hi, [&](std::uint32_t j) {
    ++stats.isect_calls;
    if (!is_dead(j) && box.contains(points_[j])) visit(j);
  });
}

}  // namespace rtd::index
