#include "index/compacted_index.hpp"

#include "common/stage.hpp"

namespace rtd::index {

CompactedIndex::CompactedIndex(std::span<const geom::Vec3> slots,
                               std::span<const std::uint8_t> live, float eps,
                               IndexKind kind,
                               const IndexBuildOptions& options)
    : slots_(slots), dense_(std::make_shared<std::vector<geom::Vec3>>()) {
  const std::size_t n = slots.size();
  // kNoSelf doubles as the "no dense id" sentinel so dense_self() can pass
  // a dead slot straight through as "nothing to exclude".
  dense_of_.assign(n, kNoSelf);
  std::size_t live_guess = n;
  if (!live.empty()) {
    live_guess = 0;
    for (std::size_t i = 0; i < n; ++i) live_guess += (live[i] != 0);
  }
  std::vector<geom::Vec3>& dense = dense_.mut();
  dense.reserve(live_guess);
  slot_of_.reserve(live_guess);
  for (std::size_t i = 0; i < n; ++i) {
    if (!live.empty() && live[i] == 0) continue;
    dense_of_[i] = static_cast<std::uint32_t>(dense.size());
    slot_of_.push_back(static_cast<std::uint32_t>(i));
    dense.push_back(slots[i]);
  }
  RTD_STAGE("index.compacted_rebuild");
  inner_ = make_index(dense, eps, kind, options);
  set_threads(options.threads);
}

std::unique_ptr<NeighborIndex> CompactedIndex::do_clone() {
  std::shared_ptr<NeighborIndex> inner = inner_->clone();
  dense_.share();
  auto copy = std::make_unique<CompactedIndex>(*this);
  copy->inner_ = std::move(inner);
  return copy;
}

std::uint32_t CompactedIndex::dense_self(std::uint32_t self) const {
  if (self == kNoSelf || self >= dense_of_.size()) return kNoSelf;
  return dense_of_[self];  // kNoSelf for a slot with no live dense id
}

void CompactedIndex::query_sphere(const geom::Vec3& center, float eps,
                                  std::uint32_t self, NeighborVisitor visit,
                                  rt::TraversalStats& stats) const {
  inner_->query_sphere(center, eps, dense_self(self),
                       [&](std::uint32_t dj) { visit(slot_of_[dj]); }, stats);
}

std::uint32_t CompactedIndex::query_count(const geom::Vec3& center, float eps,
                                          std::uint32_t self,
                                          rt::TraversalStats& stats,
                                          std::uint32_t stop_at) const {
  // Self translation preserves the inner backend's stop_at early exit: the
  // count the inner index sees is exactly the count of live slot neighbors.
  return inner_->query_count(center, eps, dense_self(self), stats, stop_at);
}

void CompactedIndex::query_box(const geom::Aabb& box, NeighborVisitor visit,
                               rt::TraversalStats& stats) const {
  inner_->query_box(box, [&](std::uint32_t dj) { visit(slot_of_[dj]); },
                    stats);
}

rt::LaunchStats CompactedIndex::query_all(float eps, PairVisitor visit,
                                          int threads) const {
  return inner_->query_all(
      eps,
      [&](std::uint32_t di, std::uint32_t dj) {
        visit(slot_of_[di], slot_of_[dj]);
      },
      threads);
}

bool CompactedIndex::do_try_insert(std::span<const geom::Vec3> all_points,
                                   std::size_t first_new) {
  // Probe with a pure rebind first: an inner backend that declines inserts
  // (grid/dense-box) declines the rebind too, and we bail before mutating
  // the dense copy — the inner span stays valid on the false path.
  if (!inner_->try_insert(*dense_, dense_->size())) return false;
  const std::size_t first_dense = dense_->size();
  // Another version's inner index may read this buffer: mut() appends to a
  // copy then.
  std::vector<geom::Vec3>& dense = dense_.mut();
  dense_of_.reserve(all_points.size());
  for (std::size_t i = first_new; i < all_points.size(); ++i) {
    dense_of_.push_back(static_cast<std::uint32_t>(dense.size()));
    slot_of_.push_back(static_cast<std::uint32_t>(i));
    dense.push_back(all_points[i]);
  }
  slots_ = all_points;
  // The dense copy may have relocated; the inner rebind-or-absorb covers it.
  return inner_->try_insert(dense, first_dense);
}

bool CompactedIndex::do_try_remove(std::span<const std::uint32_t> ids) {
  remove_scratch_.clear();
  for (const std::uint32_t id : ids) {
    const std::uint32_t dj = dense_of_[id];
    if (dj != kNoSelf) remove_scratch_.push_back(dj);
  }
  return inner_->try_remove(remove_scratch_);
}

}  // namespace rtd::index
