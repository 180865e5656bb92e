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
  origin_ = points_.empty() ? Vec3{0, 0, 0} : bounds.lo;
  // Cell diagonal <= eps: the certificate that any two cell-mates are
  // ε-neighbors.  Flat (z = const) data only needs the 2-D diagonal.
  const bool flat = points_.empty() || bounds.extent().z <= 0.0f;
  cell_ = eps / std::sqrt(flat ? 2.0f : 3.0f);
  // The cell key packs biased coordinates into 21 bits per axis (2^20 of
  // headroom below the origin for query coordinates).  Beyond that,
  // distinct cells would silently alias and a bogus dense-cell
  // certificate could fuse far-apart points — fail loudly instead.
  const geom::Vec3 extent = bounds.extent();
  for (const float e : {extent.x, extent.y, extent.z}) {
    if (e / cell_ >= static_cast<float>(1 << 20)) {
      throw std::invalid_argument(
          "DenseBoxIndex: more than 2^20 cells on one axis (extent/eps too "
          "large for the 21-bit cell key)");
    }
  }
  auto cells = std::make_shared<CellMap>();
  cells->reserve(points_.size() / 4);
  for (std::uint32_t i = 0; i < points_.size(); ++i) {
    const std::int64_t cx = coord(points_[i].x, origin_.x);
    const std::int64_t cy = coord(points_[i].y, origin_.y);
    const std::int64_t cz = coord(points_[i].z, origin_.z);
    cmax_[0] = std::max(cmax_[0], cx);
    cmax_[1] = std::max(cmax_[1], cy);
    cmax_[2] = std::max(cmax_[2], cz);
    Cell& c = (*cells)[key(cx, cy, cz)];
    c.bounds.grow(points_[i]);
    c.members.push_back(i);
  }
  cells_ = std::move(cells);
}

std::int64_t DenseBoxIndex::coord(float v, float lo) const {
  return static_cast<std::int64_t>(std::floor((v - lo) / cell_));
}

std::uint64_t DenseBoxIndex::key(std::int64_t x, std::int64_t y,
                                 std::int64_t z) {
  // 21 bits per axis, biased to keep query coordinates non-negative (same
  // packing as dbscan::GridIndex).
  constexpr std::int64_t kBias = 1 << 20;
  return (static_cast<std::uint64_t>(x + kBias) << 42) |
         (static_cast<std::uint64_t>(y + kBias) << 21) |
         static_cast<std::uint64_t>(z + kBias);
}

template <typename CellFn>
bool DenseBoxIndex::for_cells_overlapping(const Aabb& box,
                                          CellFn&& f) const {
  if (points_.empty()) return true;
  const auto clamp = [](std::int64_t v, std::int64_t hi) {
    return std::clamp<std::int64_t>(v, 0, hi);
  };
  const std::int64_t x0 = clamp(coord(box.lo.x, origin_.x), cmax_[0]);
  const std::int64_t x1 = clamp(coord(box.hi.x, origin_.x), cmax_[0]);
  const std::int64_t y0 = clamp(coord(box.lo.y, origin_.y), cmax_[1]);
  const std::int64_t y1 = clamp(coord(box.hi.y, origin_.y), cmax_[1]);
  const std::int64_t z0 = clamp(coord(box.lo.z, origin_.z), cmax_[2]);
  const std::int64_t z1 = clamp(coord(box.hi.z, origin_.z), cmax_[2]);
  const double span = static_cast<double>(x1 - x0 + 1) *
                      static_cast<double>(y1 - y0 + 1) *
                      static_cast<double>(z1 - z0 + 1);
  if (span > static_cast<double>(points_.size()) + 1024.0) return false;
  for (std::int64_t cz = z0; cz <= z1; ++cz) {
    for (std::int64_t cy = y0; cy <= y1; ++cy) {
      for (std::int64_t cx = x0; cx <= x1; ++cx) {
        const auto it = cells_->find(key(cx, cy, cz));
        if (it == cells_->end()) continue;
        if (!f(it->second)) return true;
      }
    }
  }
  return true;
}

template <typename OnNeighbor>
void DenseBoxIndex::for_neighbors_until(const Vec3& center, float eps,
                                        std::uint32_t self,
                                        rt::TraversalStats& stats,
                                        OnNeighbor&& on_neighbor) const {
  const float eps2 = eps * eps;
  const Aabb ball = Aabb::of_sphere(center, eps);
  const bool walked = for_cells_overlapping(ball, [&](const Cell& c) {
    ++stats.aabb_tests;
    if (min_distance_squared(center, c.bounds.lo, c.bounds.hi) > eps2) {
      return true;
    }
    if (max_distance_squared(center, c.bounds.lo, c.bounds.hi) <= eps2) {
      // Whole-cell certificate: every LIVE member is a neighbor, no tests
      // (removals don't re-tighten cell bounds, so the certificate stays
      // valid for the survivors — a dead member only ever widened it).
      for (const auto m : c.members) {
        if (m != self && !is_dead(m) && !on_neighbor(m)) return false;
      }
      return true;
    }
    for (const auto m : c.members) {
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
  const bool walked = for_cells_overlapping(box, [&](const Cell& c) {
    ++stats.aabb_tests;
    if (box.contains(c.bounds)) {
      for (const auto m : c.members) {
        if (!is_dead(m)) visit(m);
      }
      return true;
    }
    for (const auto m : c.members) {
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
    FunctionRef<void(std::span<const std::uint32_t>)> f) const {
  for (const auto& [k, cell] : *cells_) {
    f(cell.members);
  }
}

}  // namespace rtd::index
