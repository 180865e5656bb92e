#include "index/densebox_index.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rtd::index {

namespace {

using geom::Aabb;
using geom::Vec3;

/// Squared distance from `p` to the nearest point of box [lo, hi].
float min_distance_squared(const Vec3& p, const Vec3& lo, const Vec3& hi) {
  const auto axis = [](float v, float a, float b) {
    const float d = v < a ? a - v : (v > b ? v - b : 0.0f);
    return d * d;
  };
  return axis(p.x, lo.x, hi.x) + axis(p.y, lo.y, hi.y) +
         axis(p.z, lo.z, hi.z);
}

/// Squared distance from `p` to the farthest corner of box [lo, hi].
float max_distance_squared(const Vec3& p, const Vec3& lo, const Vec3& hi) {
  const auto axis = [](float v, float a, float b) {
    const float d = std::max(std::abs(v - a), std::abs(v - b));
    return d * d;
  };
  return axis(p.x, lo.x, hi.x) + axis(p.y, lo.y, hi.y) +
         axis(p.z, lo.z, hi.z);
}

}  // namespace

DenseBoxIndex::DenseBoxIndex(std::span<const Vec3> points, float eps)
    : points_(points), eps_(eps) {
  Aabb bounds;
  for (const auto& p : points_) bounds.grow(p);
  // Cell diagonal <= eps: the certificate that any two cell-mates are
  // ε-neighbors.  Flat (z = const) data only needs the 2-D diagonal.
  const bool flat = points_.empty() || bounds.extent().z <= 0.0f;
  const float edge = eps / std::sqrt(flat ? 2.0f : 3.0f);
  // Beyond 2^20 cells on an axis, distinct cells could alias one packed
  // key and a bogus dense-cell certificate could fuse far-apart points —
  // fail loudly instead.
  const geom::Vec3 extent = bounds.extent();
  for (const float e : {extent.x, extent.y, extent.z}) {
    if (e / edge >= static_cast<float>(1 << 20)) {
      throw std::invalid_argument(
          "DenseBoxIndex: more than 2^20 cells on one axis (extent/eps too "
          "large for the 21-bit cell key)");
    }
  }
  auto cells = std::make_shared<Cells>(Cells{CellGrid(points_, edge), {}});
  cells->bounds.resize(cells->grid.num_cells());
  for (std::uint32_t c = 0; c < cells->grid.num_cells(); ++c) {
    for (const auto m : cells->grid.members(c)) {
      cells->bounds[c].grow(points_[m]);
    }
  }
  cells_ = std::move(cells);
}

template <typename OnNeighbor>
void DenseBoxIndex::for_neighbors_until(const Vec3& center, float eps,
                                        std::uint32_t self,
                                        rt::TraversalStats& stats,
                                        OnNeighbor&& on_neighbor) const {
  const float eps2 = eps * eps;
  const Aabb ball = Aabb::of_sphere(center, eps);
  const bool walked = cells_->grid.for_box(ball, [&](std::uint32_t c) {
    ++stats.aabb_tests;
    const Aabb& b = cells_->bounds[c];
    if (min_distance_squared(center, b.lo, b.hi) > eps2) return true;
    if (max_distance_squared(center, b.lo, b.hi) <= eps2) {
      // Whole-cell certificate: every LIVE member is a neighbor, no tests
      // (removals don't re-tighten cell bounds, so the certificate stays
      // valid for the survivors — a dead member only ever widened it).
      for (const auto m : cells_->grid.members(c)) {
        if (m != self && !is_dead(m) && !on_neighbor(m)) return false;
      }
      return true;
    }
    for (const auto m : cells_->grid.members(c)) {
      ++stats.isect_calls;
      if (m != self && !is_dead(m) &&
          geom::distance_squared(center, points_[m]) <= eps2) {
        if (!on_neighbor(m)) return false;
      }
    }
    return true;
  });
  if (!walked) {
    // Radius far above the build ε: the cell walk would cover more cells
    // than points — degrade to a counted linear scan.
    for (std::uint32_t j = 0; j < points_.size(); ++j) {
      ++stats.isect_calls;
      if (j != self && !is_dead(j) &&
          geom::distance_squared(center, points_[j]) <= eps2) {
        if (!on_neighbor(j)) return;
      }
    }
  }
}

void DenseBoxIndex::query_sphere(const Vec3& center, float eps,
                                 std::uint32_t self, NeighborVisitor visit,
                                 rt::TraversalStats& stats) const {
  ++stats.rays;
  for_neighbors_until(center, eps, self, stats, [&](std::uint32_t m) {
    visit(m);
    return true;
  });
}

std::uint32_t DenseBoxIndex::query_count(const Vec3& center, float eps,
                                         std::uint32_t self,
                                         rt::TraversalStats& stats,
                                         std::uint32_t stop_at) const {
  ++stats.rays;
  if (stop_at == 0) return 0;
  std::uint32_t count = 0;
  for_neighbors_until(center, eps, self, stats,
                      [&](std::uint32_t) { return ++count < stop_at; });
  return count;
}

void DenseBoxIndex::query_box(const Aabb& box, NeighborVisitor visit,
                              rt::TraversalStats& stats) const {
  const bool walked = cells_->grid.for_box(box, [&](std::uint32_t c) {
    ++stats.aabb_tests;
    const auto members = cells_->grid.members(c);
    if (box.contains(cells_->bounds[c])) {
      for (const auto m : members) {
        if (!is_dead(m)) visit(m);
      }
      return true;
    }
    for (const auto m : members) {
      ++stats.isect_calls;
      if (!is_dead(m) && box.contains(points_[m])) visit(m);
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

void DenseBoxIndex::for_each_cell(
    FunctionRef<void(std::span<const std::uint32_t>, const Aabb&)> f) const {
  for (std::uint32_t c = 0; c < cells_->grid.num_cells(); ++c) {
    f(cells_->grid.members(c), cells_->bounds[c]);
  }
}

}  // namespace rtd::index
