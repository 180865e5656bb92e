#include "index/neighbor_index.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/stage.hpp"
#include "common/timer.hpp"
#include "dbscan/core.hpp"
#include "index/brute_force_index.hpp"
#include "index/bvh_rt_index.hpp"
#include "index/densebox_index.hpp"
#include "index/grid_index.hpp"
#include "index/point_bvh_index.hpp"
#include "index/triangle_index.hpp"
#include "rt/parallel_launch.hpp"
#include "telemetry/telemetry.hpp"

namespace rtd::index {

namespace {

// Shared accounting for the three absorb wrappers: one success counter, one
// decline counter per operation (the decline counters answer "how often do
// absorb declines force rebuilds" together with index.rebuild_fallbacks).
void count_outcome(bool ok, telemetry::Counter accepted,
                   telemetry::Counter declined) noexcept {
  telemetry::count(ok ? accepted : declined);
}

}  // namespace

NeighborIndex::NeighborIndex(const NeighborIndex& other)
    : dead_count_(other.dead_count_),
      has_dead_(other.has_dead_),
      threads_(other.threads_) {
  if (other.dead_.empty()) return;  // no mask yet: nothing to grow
  const std::size_t n = other.dead_.size();
  dead_.reserve(n + std::max<std::size_t>(64, n / 8));
  dead_.assign(other.dead_.begin(), other.dead_.end());
}

std::unique_ptr<NeighborIndex> NeighborIndex::clone() {
  RTD_STAGE("index.clone");
  return do_clone();
}

bool NeighborIndex::try_set_eps(float eps) {
  // The ε argument is validated here, once, so a bad sweep value fails
  // loudly on every backend — supported or not.
  dbscan::require_eps(eps, "try_set_eps");
  RTD_STAGE_AS(stage, "index.refit");
  if (stage.declined()) {
    telemetry::count(telemetry::Counter::kIndexRefitsDeclined);
    return false;
  }
  const bool ok = do_try_set_eps(eps);
  count_outcome(ok, telemetry::Counter::kIndexRefits,
                telemetry::Counter::kIndexRefitsDeclined);
  return ok;
}

bool NeighborIndex::try_insert(std::span<const geom::Vec3> all_points,
                               std::size_t first_new) {
  // Validated once here so backend hooks cannot mis-handle a malformed
  // span: the prefix must be exactly the points already indexed.
  if (first_new > all_points.size() || first_new != size()) {
    throw std::invalid_argument(
        "try_insert: all_points must be the current points plus an appended "
        "batch (first_new == size() <= all_points.size())");
  }
  RTD_STAGE_AS(stage, "index.insert");
  if (stage.declined()) {
    telemetry::count(telemetry::Counter::kIndexInsertsDeclined);
    return false;
  }
  const bool ok = do_try_insert(all_points, first_new);
  count_outcome(ok, telemetry::Counter::kIndexInsertsAbsorbed,
                telemetry::Counter::kIndexInsertsDeclined);
  // Keep the mask covering every id; new points are born live.
  if (ok && !dead_.empty()) dead_.resize(all_points.size(), 0);
  return ok;
}

bool NeighborIndex::try_remove(std::span<const std::uint32_t> ids) {
  const std::size_t n = size();
  for (const std::uint32_t id : ids) {
    if (id >= n) {
      throw std::invalid_argument("try_remove: id out of range");
    }
  }
  if (ids.empty()) return true;
  // Before the mask mutates: a decline here leaves the index untouched, like
  // a backend that cannot absorb the removal batch.
  RTD_STAGE_AS(stage, "index.remove");
  if (stage.declined()) {
    telemetry::count(telemetry::Counter::kIndexRemovesDeclined);
    return false;
  }
  if (dead_.size() != n) dead_.resize(n, 0);
  for (const std::uint32_t id : ids) {
    if (dead_[id] == 0) {
      dead_[id] = 1;
      ++dead_count_;
    }
  }
  has_dead_ = true;
  // The mask is set BEFORE the hook so a masked refit inside it sees the
  // whole batch; on a false return the caller discards the index anyway.
  const bool ok = do_try_remove(ids);
  count_outcome(ok, telemetry::Counter::kIndexRemovesAbsorbed,
                telemetry::Counter::kIndexRemovesDeclined);
  return ok;
}

std::uint32_t NeighborIndex::query_count(const geom::Vec3& center, float eps,
                                         std::uint32_t self,
                                         rt::TraversalStats& stats,
                                         std::uint32_t stop_at) const {
  // Default: a full enumeration (no early exit).  Backends whose traversal
  // can terminate override this to honor `stop_at`.
  (void)stop_at;
  std::uint32_t count = 0;
  query_sphere(center, eps, self, [&](std::uint32_t) { ++count; }, stats);
  return count;
}

void NeighborIndex::query_count_packet(std::span<const std::uint32_t> ids,
                                       float eps,
                                       std::span<std::uint32_t> counts,
                                       rt::TraversalStats& stats,
                                       std::uint32_t stop_at) const {
  const std::span<const geom::Vec3> pts = points();
  for (std::size_t k = 0; k < ids.size(); ++k) {
    counts[k] = query_count(pts[ids[k]], eps, ids[k], stats, stop_at);
  }
}

void NeighborIndex::query_sphere_packet(std::span<const std::uint32_t> ids,
                                        float eps, PairVisitor visit,
                                        rt::TraversalStats& stats) const {
  const std::span<const geom::Vec3> pts = points();
  for (std::uint32_t k = 0; k < ids.size(); ++k) {
    query_sphere(pts[ids[k]], eps, ids[k],
                 [&](std::uint32_t j) { visit(k, j); }, stats);
  }
}

std::size_t NeighborIndex::query_pairs_packet(
    std::span<const std::uint32_t> ids, float eps,
    std::span<PacketPair> pairs, std::span<std::uint32_t> rows,
    rt::TraversalStats& stats) const {
  const std::span<const geom::Vec3> pts = points();
  std::fill(rows.begin(), rows.end(), 0u);
  std::size_t found = 0;
  query_sphere_packet(
      ids, eps,
      [&](std::uint32_t k, std::uint32_t j) {
        ++rows[k];
        if (found < pairs.size()) {
          pairs[found] = {k, j, geom::distance_squared(pts[ids[k]], pts[j])};
        }
        ++found;
      },
      stats);
  return found;
}

void NeighborIndex::query_box(const geom::Aabb& box, NeighborVisitor visit,
                              rt::TraversalStats& stats) const {
  // Default: counted linear scan.  Grid/tree backends override.
  ++stats.rays;
  const std::span<const geom::Vec3> pts = points();
  for (std::uint32_t j = 0; j < pts.size(); ++j) {
    ++stats.isect_calls;
    if (!is_dead(j) && box.contains(pts[j])) visit(j);
  }
}

rt::LaunchStats NeighborIndex::query_all(float eps, PairVisitor visit,
                                         int threads) const {
  const std::span<const geom::Vec3> pts = points();
  return rt::parallel_launch(
      pts.size(), threads, [&](rt::TraversalStats& stats, std::size_t i) {
        const auto self = static_cast<std::uint32_t>(i);
        if (is_dead(self)) return;  // dead points neither query nor appear
        query_sphere(pts[i], eps, self,
                     [&](std::uint32_t j) { visit(self, j); }, stats);
      });
}

std::unique_ptr<NeighborIndex> make_index(std::span<const geom::Vec3> points,
                                          float eps, IndexKind kind,
                                          const IndexBuildOptions& options) {
  dbscan::require_eps(eps, "make_index");
  kind = resolve_auto(kind, IndexKind::kBvhRt);
  RTD_STAGE("index.build");
  telemetry::count(telemetry::Counter::kIndexBuilds);
  std::unique_ptr<NeighborIndex> index;
  switch (kind) {
    case IndexKind::kBruteForce:
      index = std::make_unique<BruteForceIndex>(points, eps);
      break;
    case IndexKind::kGrid:
      index = std::make_unique<GridIndex>(points, eps);
      break;
    case IndexKind::kDenseBox:
      index = std::make_unique<DenseBoxIndex>(points, eps);
      break;
    case IndexKind::kPointBvh:
      index = std::make_unique<PointBvhIndex>(points, eps, options.threads);
      break;
    case IndexKind::kBvhRt:
      index = std::make_unique<BvhRtIndex>(points, eps, options.threads);
      break;
    case IndexKind::kTriangles:
      index = std::make_unique<TriangleIndex>(
          points, eps, options.triangle_subdivisions, options.threads);
      break;
    case IndexKind::kAuto: break;  // resolved above
  }
  if (!index) throw std::invalid_argument("make_index: unknown IndexKind");
  // The writer operations (refits) keep the build's thread budget.
  index->set_threads(options.threads);
  return index;
}

}  // namespace rtd::index
