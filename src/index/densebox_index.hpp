// DenseBoxIndex — dense-box grid (Prokopenko et al.'s certificate idea) as a
// neighbor-query backend.
//
// A CellGrid whose cell DIAGONAL is <= the build ε (edge = ε/√dims): any
// two points sharing a cell are provably within ε of each other.  A sphere
// query walks the cells overlapping the query ball and classifies each
// whole cell first:
//   * farthest corner within eps  -> accept every member, zero distance
//     tests (the "dense box" certificate);
//   * nearest corner beyond eps   -> reject the cell outright;
//   * otherwise                   -> exact per-member distance tests.
// On crowded data most members resolve through the first branch.  The cell
// structure is also exposed directly (for_each_cell) because the
// FDBSCAN-DenseBox variant turns cells with >= minPts members into free core
// points.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "index/cell_grid.hpp"
#include "index/neighbor_index.hpp"

namespace rtd::index {

/// Dense-box grid neighbor index.  Whole-cell accept/reject tests count as
/// AABB tests; only per-member exact tests count as Intersection calls.
class DenseBoxIndex final : public NeighborIndex {
 public:
  /// Build the grid with cell diagonal `eps` (edge = ε/√3, or ε/√2 for flat
  /// z = const data) over `points`.  std::invalid_argument when an axis
  /// spans 2^20 cells or more: the certificates trust whole cells, so the
  /// cell key must not alias.
  DenseBoxIndex(std::span<const geom::Vec3> points, float eps);

  [[nodiscard]] IndexKind kind() const override {
    return IndexKind::kDenseBox;
  }
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

  /// Enumerate every non-empty cell: its member ids (dataset indices) and
  /// the tight bounds of those members.  Cell order is unspecified but
  /// stable for a given build.
  void for_each_cell(
      FunctionRef<void(std::span<const std::uint32_t>, const geom::Aabb&)> f)
      const;

 private:
  /// Versioning: the clone shares the cells, which no mutation touches,
  /// and copies the dead mask.
  std::unique_ptr<NeighborIndex> do_clone() override {
    return std::make_unique<DenseBoxIndex>(*this);
  }

  // Mutation contract: inserts decline (base do_try_insert — cells hold
  // their own membership copy, so the caller rebuilds); removals ride the
  // base dead mask, filtered in BOTH member branches of the walk (the
  // whole-cell certificate stays valid for the survivors: cell bounds are
  // never re-tightened, a dead member only ever widened them).
  // for_each_cell still enumerates dead members — its one consumer
  // (fdbscan_densebox) always builds a fresh index.

  /// The one ε-sphere walk behind query_sphere AND query_count: cell
  /// certificates, exact member tests, work counters and the oversized-
  /// radius linear-scan fallback live here once.  `on_neighbor(m)` fires
  /// for each confirmed neighbor and returns false to stop the query
  /// (query_count's stop_at); query_sphere's visitor always continues.
  template <typename OnNeighbor>
  void for_neighbors_until(const geom::Vec3& center, float eps,
                           std::uint32_t self, rt::TraversalStats& stats,
                           OnNeighbor&& on_neighbor) const;

  struct Cells {
    CellGrid grid;
    /// TIGHT bounds of each cell's members (not the nominal cell box):
    /// exact for both certificates — min-distance beyond ε to this box
    /// proves no member is a neighbor, farthest corner within ε proves all
    /// are — immune to the ulp-level misplacement of a member relative to
    /// its nominal cell box, and collapses to zero z-extent on flat data.
    std::vector<geom::Aabb> bounds;
  };

  std::span<const geom::Vec3> points_;
  float eps_;
  std::shared_ptr<const Cells> cells_;  ///< immutable; versions share it
};

}  // namespace rtd::index
