#include "index/point_bvh_index.hpp"

#include "rt/traversal.hpp"

namespace rtd::index {

PointBvhIndex::PointBvhIndex(std::span<const geom::Vec3> points, float eps,
                             int threads)
    : points_(points),
      eps_(eps),
      built_count_(points.size()),
      tree_(std::make_shared<PointTree>(points, threads)),
      tail_(points.size()) {
  set_threads(threads);
}

bool PointBvhIndex::do_try_remove(std::span<const std::uint32_t> ids) {
  removed_since_refit_ += ids.size();
  if (removed_since_refit_ >= refit_threshold() && !tree_->bvh.empty()) {
    // Masked refit: tighten every node around the survivors (dead slots
    // keep their topology position but stop widening any bounds).  The
    // mask the base class set covers this batch already.  A tree another
    // version shares is copied first.
    tree_.mut().refit(points_.first(built_count_), dead_mask(), threads());
    removed_since_refit_ = 0;
  }
  return true;
}

// Queries walk the main tree and then the delta tail through
// for_each_candidate: each tree walks its wide SoA kernel from
// PointTree::kWideMinPoints points up, its binary node walk below.  Both
// surface a conservative candidate superset; the exact distance filter in
// every caller makes results equal brute force (test-enforced).

void PointBvhIndex::query_sphere(const geom::Vec3& center, float eps,
                                 std::uint32_t self, NeighborVisitor visit,
                                 rt::TraversalStats& stats) const {
  const float eps2 = eps * eps;
  for_each_candidate(
      geom::Aabb::of_sphere(center, eps), stats, [&](std::uint32_t j) {
        if (j != self && !is_dead(j) &&
            geom::distance_squared(center, points_[j]) <= eps2) {
          visit(j);
        }
        return rt::TraversalControl::kContinue;
      });
}

std::uint32_t PointBvhIndex::query_count(const geom::Vec3& center, float eps,
                                         std::uint32_t self,
                                         rt::TraversalStats& stats,
                                         std::uint32_t stop_at) const {
  if (stop_at == 0) {
    ++stats.rays;  // the query "launches" even though it resolves instantly
    return 0;
  }
  const float eps2 = eps * eps;
  std::uint32_t count = 0;
  for_each_candidate(
      geom::Aabb::of_sphere(center, eps), stats, [&](std::uint32_t j) {
        if (j != self && !is_dead(j) &&
            geom::distance_squared(center, points_[j]) <= eps2 &&
            ++count >= stop_at) {
          return rt::TraversalControl::kTerminate;
        }
        return rt::TraversalControl::kContinue;
      });
  return count;
}

void PointBvhIndex::query_box(const geom::Aabb& box, NeighborVisitor visit,
                              rt::TraversalStats& stats) const {
  for_each_candidate(box, stats, [&](std::uint32_t j) {
    if (!is_dead(j) && box.contains(points_[j])) visit(j);
    return rt::TraversalControl::kContinue;
  });
}

}  // namespace rtd::index
