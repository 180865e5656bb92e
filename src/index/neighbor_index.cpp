#include "index/neighbor_index.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "common/stage.hpp"
#include "common/timer.hpp"
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

rt::Context::Options device_options(const IndexBuildOptions& options) {
  rt::Context::Options device;
  device.build = options.build;
  device.threads = options.threads;
  return device;
}

}  // namespace

std::unique_ptr<NeighborIndex> NeighborIndex::clone() {
  RTD_STAGE("index.clone");
  return do_clone();
}

bool NeighborIndex::try_set_eps(float eps) {
  // The ε argument is validated here, once, so a bad sweep value fails
  // loudly on every backend — supported or not.  NaN fails every
  // comparison, hence the accepting-condition form.
  if (!(eps > 0.0f) || !std::isfinite(eps)) {
    throw std::invalid_argument("try_set_eps: eps must be positive and finite");
  }
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

IndexKind choose_index_kind(std::span<const geom::Vec3> points, float eps) {
  const std::size_t n = points.size();
  // Tiny datasets: any build costs more than it saves.
  if (n <= 2048) return IndexKind::kBruteForce;

  geom::Aabb bounds;
  for (const auto& p : points) bounds.grow(p);
  const geom::Vec3 ext = bounds.extent();
  // Expected occupancy of an ε-edged cell: how crowded neighborhoods are.
  double cells = 1.0;
  for (const float e : {ext.x, ext.y, ext.z}) {
    cells *= std::max(1.0, static_cast<double>(e) /
                               static_cast<double>(eps));
  }
  const double occupancy = static_cast<double>(n) / cells;
  // Very dense: whole-cell certificates resolve most members for free.
  if (occupancy >= 64.0) return IndexKind::kDenseBox;
  // Mid-size: the grid's O(n) counting-sort build wins on build cost.
  if (n <= 65536) return IndexKind::kGrid;
  // Large: the paper's regime — hardware-style BVH over ε-spheres.
  return IndexKind::kBvhRt;
}

std::unique_ptr<NeighborIndex> make_index(std::span<const geom::Vec3> points,
                                          float eps, IndexKind kind,
                                          const IndexBuildOptions& options) {
  if (eps <= 0.0f) {
    throw std::invalid_argument("make_index: eps must be positive");
  }
  if (kind == IndexKind::kAuto) kind = choose_index_kind(points, eps);
  RTD_STAGE("index.build");
  telemetry::count(telemetry::Counter::kIndexBuilds);
  // Honor the requested build parallelism (the tree backends build with
  // parallel_for / parallel builders).
  const ThreadCountGuard guard(
      options.threads > 0 ? options.threads : hardware_threads());
  switch (kind) {
    case IndexKind::kBruteForce:
      return std::make_unique<BruteForceIndex>(points, eps);
    case IndexKind::kGrid:
      return std::make_unique<GridIndex>(points, eps);
    case IndexKind::kDenseBox:
      return std::make_unique<DenseBoxIndex>(points, eps);
    case IndexKind::kPointBvh:
      return std::make_unique<PointBvhIndex>(points, eps, options.build);
    case IndexKind::kBvhRt:
      return std::make_unique<BvhRtIndex>(points, eps, device_options(options));
    case IndexKind::kTriangles:
      return std::make_unique<TriangleIndex>(
          points, eps, options.triangle_subdivisions, device_options(options));
    case IndexKind::kAuto: break;  // resolved above
  }
  throw std::invalid_argument("make_index: unknown IndexKind");
}

}  // namespace rtd::index
