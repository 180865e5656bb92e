#include "index/grid_index.hpp"

#include <memory>
#include <stdexcept>
#include <string>

namespace rtd::index {

GridIndex::GridIndex(std::span<const geom::Vec3> points, float eps)
    : points_(points),
      eps_(eps),
      grid_(std::make_shared<const CellGrid>(points, eps)) {}

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
  grid_->for_ring(center, [&](std::uint32_t cell) {
    for (const std::uint32_t j : grid_->members(cell)) {
      ++stats.isect_calls;
      if (j != self && !is_dead(j) &&
          geom::distance_squared(center, points_[j]) <= eps2) {
        visit(j);
      }
    }
    return true;
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
  grid_->for_ring(center, [&](std::uint32_t cell) {
    for (const std::uint32_t j : grid_->members(cell)) {
      ++stats.isect_calls;
      if (j != self && !is_dead(j) &&
          geom::distance_squared(center, points_[j]) <= eps2 &&
          ++count >= stop_at) {
        return false;
      }
    }
    return true;
  });
  return count;
}

void GridIndex::query_box(const geom::Aabb& box, NeighborVisitor visit,
                          rt::TraversalStats& stats) const {
  const bool walked = grid_->for_box(box, [&](std::uint32_t cell) {
    for (const std::uint32_t j : grid_->members(cell)) {
      ++stats.isect_calls;
      if (!is_dead(j) && box.contains(points_[j])) visit(j);
    }
    return true;
  });
  if (!walked) {
    // Oversized box: the base linear scan is cheaper (it counts the ray).
    NeighborIndex::query_box(box, visit, stats);
    return;
  }
  ++stats.rays;
}

}  // namespace rtd::index
