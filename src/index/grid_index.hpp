// GridIndex — the uniform grid behind the NeighborIndex contract.
//
// A CellGrid with cell edge = build ε: a query examines every point in the
// 27 cells around it, so the one-ring covers radii up to the cell edge and
// query eps must be <= build_eps.  Build is a single counting-sort pass,
// far cheaper than any BVH; queries degrade when ε-cells are crowded.  The
// sequential reference, CUDA-DClust+ and the check_equivalent oracle run
// on it.
#pragma once

#include <memory>
#include <span>

#include "index/cell_grid.hpp"
#include "index/neighbor_index.hpp"

namespace rtd::index {

/// Uniform-grid neighbor index.  Each candidate examined (every point in the
/// 27 cells around the query) counts one Intersection-program call.
class GridIndex final : public NeighborIndex {
 public:
  /// Build the grid with cell edge `eps` over `points`
  /// (std::invalid_argument unless `eps` is positive and finite).
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

 private:
  /// Versioning: the clone shares the cell arrays, which no mutation
  /// touches, and copies the dead mask.
  std::unique_ptr<NeighborIndex> do_clone() override {
    return std::make_unique<GridIndex>(*this);
  }

  // Mutation contract: inserts decline (base do_try_insert — the cells
  // hold their own membership copy, so the caller rebuilds); removals ride
  // the base dead mask, filtered in the candidate loops.

  void require_radius(float eps) const;

  std::span<const geom::Vec3> points_;
  float eps_;
  std::shared_ptr<const CellGrid> grid_;  ///< immutable; shared
};

}  // namespace rtd::index
