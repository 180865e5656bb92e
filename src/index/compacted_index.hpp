// CompactedIndex — rebuild adapter for live sessions with dead slots.
//
// A Clusterer session never compacts its slot space: removed points keep
// their ids (tombstones) so labels, snapshots and caller-held ids stay
// stable.  When accumulated mutations force an index REBUILD, building the
// backend over the full slot span would resurrect the dead (fresh indices
// have an empty mask) and make grid/dense-box bin points that no longer
// exist.  This adapter rebuilds the inner backend over a DENSE COPY of the
// live points and translates ids at the query boundary:
//
//   outer (slot ids, the session's space)  <->  inner (dense ids)
//
// Queries forward to the inner index and map visited dense ids back to slot
// ids; `self` exclusion translates the other way.  The mutation contract
// composes: inserts append to the dense copy and forward (so the delta-tail
// backends keep absorbing them), removals translate to dense ids and mask
// inside the inner index.  points() still reports the FULL slot span — the
// engine's phase loops and the snapshot layer are slot-addressed.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/copy_on_write.hpp"
#include "index/neighbor_index.hpp"

namespace rtd::index {

/// Neighbor index over the live subset of a tombstoned slot span, presenting
/// slot ids while the wrapped backend works in dense ids.
class CompactedIndex final : public NeighborIndex {
 public:
  /// Build the inner `kind` backend (never kAuto) over the live points of
  /// `slots`: slot i participates iff live is empty or live[i] != 0.  The
  /// dense copy is owned by this adapter; `live` is only read during
  /// construction.  `slots` must stay alive and value-stable like any
  /// make_index() input (mutations go through try_insert/try_remove).
  CompactedIndex(std::span<const geom::Vec3> slots,
                 std::span<const std::uint8_t> live, float eps,
                 IndexKind kind, const IndexBuildOptions& options = {});

  [[nodiscard]] IndexKind kind() const override { return inner_->kind(); }
  [[nodiscard]] std::span<const geom::Vec3> points() const override {
    return slots_;
  }
  [[nodiscard]] float build_eps() const override {
    return inner_->build_eps();
  }
  [[nodiscard]] bool refittable() const override {
    return inner_->refittable();
  }
  [[nodiscard]] rt::TraversalWidth traversal_width() const override {
    return inner_->traversal_width();
  }

  void query_sphere(const geom::Vec3& center, float eps, std::uint32_t self,
                    NeighborVisitor visit,
                    rt::TraversalStats& stats) const override;

  [[nodiscard]] std::uint32_t query_count(
      const geom::Vec3& center, float eps, std::uint32_t self,
      rt::TraversalStats& stats, std::uint32_t stop_at) const override;

  void query_box(const geom::Aabb& box, NeighborVisitor visit,
                 rt::TraversalStats& stats) const override;

  rt::LaunchStats query_all(float eps, PairVisitor visit,
                            int threads = 0) const override;

  /// Number of live (dense) points the inner index covers.
  [[nodiscard]] std::size_t live_count() const {
    return dense_->size() - inner_->removed_count();
  }

 private:
  /// Versioning: clone the inner index, copy the id maps, share the dense
  /// copy until either version appends to it.
  std::unique_ptr<NeighborIndex> do_clone() override;

  bool do_try_set_eps(float eps) override {
    return inner_->try_set_eps(eps);
  }
  bool do_try_insert(std::span<const geom::Vec3> all_points,
                     std::size_t first_new) override;
  bool do_try_remove(std::span<const std::uint32_t> ids) override;

  /// Slot id -> inner dense id for `self` exclusion (kNoSelf passes
  /// through, as does a slot with no live dense id).
  [[nodiscard]] std::uint32_t dense_self(std::uint32_t self) const;

  std::span<const geom::Vec3> slots_;      ///< full slot span (id space)
  /// Owned live copy, dense ids; the inner index reads it.
  CopyOnWrite<std::vector<geom::Vec3>> dense_;
  std::vector<std::uint32_t> slot_of_;     ///< dense id -> slot id
  std::vector<std::uint32_t> dense_of_;    ///< slot id -> dense id / kNone
  std::vector<std::uint32_t> remove_scratch_;
  std::shared_ptr<NeighborIndex> inner_;  ///< a clone gets its own
};

}  // namespace rtd::index
