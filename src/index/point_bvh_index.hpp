// PointBvhIndex — FDBSCAN's substrate behind the NeighborIndex contract.
//
// A BVH over the bare data points (no ε inflation: the query volume carries
// the radius).  A sphere query traverses with a box around the ε-sphere and
// applies the exact distance filter at the leaves; because the traversal is
// software, it CAN terminate early — this is the backend that realizes
// FDBSCAN's §VI-B early-exit optimization, the one thing the RT pipeline
// cannot express.  Radius-agnostic: one tree serves any query eps.
#pragma once

#include <algorithm>
#include <memory>
#include <span>

#include "common/copy_on_write.hpp"
#include "index/neighbor_index.hpp"
#include "index/point_tree.hpp"

namespace rtd::index {

/// Point-BVH neighbor index (software volume-overlap traversal).
class PointBvhIndex final : public NeighborIndex {
 public:
  /// Build a BVH over per-point AABBs with the given builder settings.
  PointBvhIndex(std::span<const geom::Vec3> points, float eps,
                const rt::BuildOptions& build = {});

  [[nodiscard]] IndexKind kind() const override {
    return IndexKind::kPointBvh;
  }
  [[nodiscard]] std::span<const geom::Vec3> points() const override {
    return points_;
  }
  [[nodiscard]] float build_eps() const override { return eps_; }
  [[nodiscard]] bool refittable() const override { return true; }
  [[nodiscard]] rt::TraversalWidth traversal_width() const override {
    return tree_->wide.empty() ? rt::TraversalWidth::kBinary
                               : rt::TraversalWidth::kWide;
  }

  void query_sphere(const geom::Vec3& center, float eps, std::uint32_t self,
                    NeighborVisitor visit,
                    rt::TraversalStats& stats) const override;

  [[nodiscard]] std::uint32_t query_count(
      const geom::Vec3& center, float eps, std::uint32_t self,
      rt::TraversalStats& stats, std::uint32_t stop_at) const override;

  void query_box(const geom::Aabb& box, NeighborVisitor visit,
                 rt::TraversalStats& stats) const override;

  /// The underlying tree over the build-time points (build statistics,
  /// ablation benches).
  [[nodiscard]] const rt::Bvh& bvh() const { return tree_->bvh; }
  /// The collapsed wide layout; empty when queries walk the binary tree
  /// (rt::BuildOptions::width, rt::use_wide_traversal).
  [[nodiscard]] const rt::WideBvh& wide_bvh() const { return tree_->wide; }

 private:
  /// Versioning: the clone shares the tree (copied by the first masked
  /// refit of either version) and the tail tree.
  std::unique_ptr<NeighborIndex> do_clone() override {
    tree_.share();
    return std::make_unique<PointBvhIndex>(*this);
  }

  /// Refit contract: always satisfiable — the tree is over the bare points
  /// (the query volume carries the radius), so retargeting ε only updates
  /// the recorded build ε.  One tree serves every sweep value.  Reached
  /// through NeighborIndex::try_set_eps, which owns the eps validation.
  bool do_try_set_eps(float eps) override {
    eps_ = eps;
    return true;
  }

  /// Insert contract: rebind the span — the tree keeps covering the
  /// build-time prefix [0, built_count_) and the appended ids join the
  /// DELTA TAIL [built_count_, size), queried through its own tree plus a
  /// short linear residue with the same exact filter.  The session's
  /// rebuild threshold bounds the tail length.
  bool do_try_insert(std::span<const geom::Vec3> all_points,
                     std::size_t first_new) override {
    (void)first_new;
    tail_.absorb(all_points, build_);
    points_ = all_points;
    return true;
  }

  /// Removal: the base mask filters queries immediately; once enough
  /// removals accumulate, a masked refit tightens the node bounds around
  /// the survivors (amortized — see refit_threshold()).
  bool do_try_remove(std::span<const std::uint32_t> ids) override;

  [[nodiscard]] std::size_t refit_threshold() const {
    return std::max<std::size_t>(256, built_count_ / 64);
  }

  /// Every candidate id for a query box — the main tree's, then the delta
  /// tail's — each counted as one exact-filter call; `on_candidate`
  /// returns rt::TraversalControl.
  template <typename Fn>
  void for_each_candidate(const geom::Aabb& box, rt::TraversalStats& stats,
                          Fn&& on_candidate) const {
    bool stopped = false;
    const auto counted = [&](std::uint32_t j) {
      ++stats.isect_calls;
      const rt::TraversalControl c = on_candidate(j);
      stopped = c == rt::TraversalControl::kTerminate;
      return c;
    };
    tree_->overlap(box, counted, stats);
    if (!stopped) tail_.for_each_candidate(points_, box, stats, counted);
  }

  std::span<const geom::Vec3> points_;
  float eps_;
  rt::BuildOptions build_;  ///< the tail tree is built with it too
  std::size_t built_count_;  ///< prims the tree covers; the rest is delta
  std::size_t removed_since_refit_ = 0;
  CopyOnWrite<PointTree> tree_;
  DeltaTail tail_;
};

}  // namespace rtd::index
