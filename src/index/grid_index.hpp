// GridIndex (adapter) — the uniform hash grid behind the NeighborIndex
// contract.
//
// Wraps dbscan::GridIndex (cell edge = build ε, queries examine the 27
// surrounding cells).  Build is a single counting-sort pass, far cheaper
// than any BVH; queries degrade when ε-cells are crowded.  The one-ring
// query only covers radii up to the cell edge, so query eps must be
// <= build_eps.
#pragma once

#include <memory>
#include <span>

#include "dbscan/grid_index.hpp"
#include "index/neighbor_index.hpp"

namespace rtd::index {

/// Uniform-grid neighbor index.  Each candidate examined (every point in the
/// 27 cells around the query) counts one Intersection-program call.
class GridIndex final : public NeighborIndex {
 public:
  /// Build the grid with cell edge `eps` over `points`.
  GridIndex(std::span<const geom::Vec3> points, float eps);

  [[nodiscard]] IndexKind kind() const override { return IndexKind::kGrid; }
  [[nodiscard]] std::span<const geom::Vec3> points() const override {
    return points_;
  }
  [[nodiscard]] float build_eps() const override { return eps_; }

  void query_sphere(const geom::Vec3& center, float eps, std::uint32_t self,
                    NeighborVisitor visit,
                    rt::TraversalStats& stats) const override;

  [[nodiscard]] std::uint32_t query_count(
      const geom::Vec3& center, float eps, std::uint32_t self,
      rt::TraversalStats& stats, std::uint32_t stop_at) const override;

  void query_box(const geom::Aabb& box, NeighborVisitor visit,
                 rt::TraversalStats& stats) const override;

  /// The wrapped grid, for consumers that need raw candidate enumeration
  /// (the CUDA-DClust+ port counts device distance tests that way).
  [[nodiscard]] const dbscan::GridIndex& grid() const { return *grid_; }

 private:
  /// Versioning: the clone shares the cell arrays, which no mutation
  /// touches, and copies the dead mask.
  std::unique_ptr<NeighborIndex> do_clone() override {
    return std::make_unique<GridIndex>(*this);
  }

  // Mutation contract: inserts decline (base do_try_insert — the wrapped
  // grid's cell arrays hold their own membership copy, so the caller
  // rebuilds); removals ride the base dead mask, filtered in the candidate
  // loops above.

  void require_radius(float eps) const;

  std::span<const geom::Vec3> points_;
  float eps_;
  std::shared_ptr<const dbscan::GridIndex> grid_;  ///< immutable; shared
};

}  // namespace rtd::index
