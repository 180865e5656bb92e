#include "core/index_snapshot.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/stage.hpp"
#include "dbscan/core.hpp"
#include "rt/parallel_launch.hpp"
#include "telemetry/telemetry.hpp"

namespace rtd {

namespace {

using geom::Vec3;
using index::IndexKind;

void validate_center(const Vec3& center) {
  if (!geom::is_finite(center)) {
    throw std::invalid_argument(
        "IndexSnapshot: query center has a non-finite coordinate");
  }
}

[[nodiscard]] bool backend_radius_agnostic(IndexKind kind) {
  return kind == IndexKind::kPointBvh || kind == IndexKind::kBruteForce ||
         kind == IndexKind::kDenseBox;
}

}  // namespace

IndexSnapshot::IndexSnapshot(
    std::shared_ptr<const index::NeighborIndex> index,
    std::shared_ptr<const void> storage,
    std::span<const Vec3> points, float eps)
    : index_(std::move(index)),
      storage_(std::move(storage)),
      points_(points),
      eps_(eps) {
  if (!index_) {
    throw std::invalid_argument("IndexSnapshot: null index");
  }
  dbscan::require_eps(eps, "IndexSnapshot");
  radius_agnostic_ = backend_radius_agnostic(index_->kind());
}

void IndexSnapshot::visit_neighbors(const Vec3& center, float eps,
                                    std::uint32_t self,
                                    index::NeighborVisitor visit,
                                    rt::TraversalStats& stats) const {
  // eps == built, or a backend that takes any radius natively: direct.
  if (eps == eps_ || radius_agnostic_ ||
      (eps < eps_ && index_->kind() == IndexKind::kGrid)) {
    // (The grid's one-ring guarantee covers any radius <= its build ε.)
    index_->query_sphere(center, eps, self, visit, stats);
    return;
  }
  if (eps < eps_) {
    // kBvhRt/kTriangles: the ε is baked into the geometry, so enumerate at
    // the built radius — a strict superset of the eps-ball — and filter
    // exactly.
    const float eps2 = eps * eps;
    index_->query_sphere(
        center, eps_, self,
        [&](std::uint32_t j) {
          if (geom::distance_squared(center, points_[j]) <= eps2) visit(j);
        },
        stats);
    return;
  }
  throw std::invalid_argument(
      std::string("IndexSnapshot: backend '") + index_->name() +
      "' built at eps " + std::to_string(eps_) +
      " cannot serve the larger query radius " + std::to_string(eps) +
      " — retarget the session and take a new snapshot");
}

std::vector<std::uint32_t> IndexSnapshot::query_neighbors(
    const Vec3& center) const {
  return query_neighbors(center, eps_);
}

std::vector<std::uint32_t> IndexSnapshot::query_neighbors(const Vec3& center,
                                                          float eps) const {
  std::vector<std::uint32_t> ids;
  query_neighbors_into(center, eps, index::kNoSelf, ids);
  return ids;
}

std::vector<std::uint32_t> IndexSnapshot::query_neighbors(
    std::uint32_t i) const {
  if (i >= points_.size()) {
    throw std::invalid_argument(
        "IndexSnapshot: query point index out of range");
  }
  std::vector<std::uint32_t> ids;
  query_neighbors_into(points_[i], eps_, i, ids);
  return ids;
}

void IndexSnapshot::query_neighbors_into(
    const Vec3& center, float eps, std::uint32_t self,
    std::vector<std::uint32_t>& out) const {
  // The read-path histogram ("what is p99 snapshot-read latency right
  // now"): reads the clock only when metrics are armed, so the disarmed
  // cost stays one relaxed load.
  const telemetry::LatencyTimer lat(
      telemetry::Histogram::kSnapshotReadLatency);
  telemetry::count(telemetry::Counter::kSnapshotReads);
  validate_center(center);
  dbscan::require_eps(eps, "IndexSnapshot");
  out.clear();
  rt::TraversalStats stats;
  visit_neighbors(center, eps, self,
                  [&](std::uint32_t j) { out.push_back(j); }, stats);
  std::sort(out.begin(), out.end());
}

std::uint32_t IndexSnapshot::query_count(const Vec3& center, float eps,
                                         std::uint32_t self) const {
  const telemetry::LatencyTimer lat(
      telemetry::Histogram::kSnapshotReadLatency);
  telemetry::count(telemetry::Counter::kSnapshotReads);
  validate_center(center);
  dbscan::require_eps(eps, "IndexSnapshot");
  std::uint32_t count = 0;
  rt::TraversalStats stats;
  visit_neighbors(center, eps, self, [&](std::uint32_t) { ++count; }, stats);
  return count;
}

BatchQueryResult IndexSnapshot::query_batch(std::span<const Vec3> centers,
                                            float eps, int threads) const {
  BatchQueryResult out;
  query_batch_into(centers, eps, threads, out);
  return out;
}

void IndexSnapshot::query_batch_into(std::span<const Vec3> centers, float eps,
                                     int threads,
                                     BatchQueryResult& out) const {
  // Span + histogram wrap BOTH launches from this serial boundary (never
  // inside the launch bodies below).
  RTD_STAGE("snapshot.query_batch");
  const telemetry::LatencyTimer lat(
      telemetry::Histogram::kQueryBatchLatency);
  telemetry::count(telemetry::Counter::kSnapshotQueryBatches);
  dbscan::require_eps(eps, "IndexSnapshot");
  // Validate every center up front, so a bad one throws before any query
  // runs.
  for (std::size_t q = 0; q < centers.size(); ++q) {
    if (!geom::is_finite(centers[q])) {
      throw std::invalid_argument(
          "IndexSnapshot: query_batch center " + std::to_string(q) +
          " has a non-finite coordinate");
    }
  }

  const std::size_t m = centers.size();
  out.starts.assign(m + 1, 0);

  // Pass 1: per-center neighbor counts into starts[q + 1].
  const rt::LaunchStats count_stats = rt::parallel_launch(
      m, threads, [&](rt::TraversalStats& stats, std::size_t q) {
        std::uint32_t c = 0;
        visit_neighbors(centers[q], eps, index::kNoSelf,
                        [&](std::uint32_t) { ++c; }, stats);
        out.starts[q + 1] = c;
      });
  for (std::size_t q = 0; q < m; ++q) out.starts[q + 1] += out.starts[q];

  // Pass 2: fill each center's exact CSR slot, ascending within the slot.
  out.ids.resize(out.starts[m]);
  const rt::LaunchStats fill_stats = rt::parallel_launch(
      m, threads, [&](rt::TraversalStats& stats, std::size_t q) {
        std::uint32_t cursor = out.starts[q];
        visit_neighbors(centers[q], eps, index::kNoSelf,
                        [&](std::uint32_t j) { out.ids[cursor++] = j; },
                        stats);
        std::sort(out.ids.begin() + out.starts[q],
                  out.ids.begin() + out.starts[q + 1]);
      });

  out.stats = count_stats;
  out.stats.seconds += fill_stats.seconds;
  out.stats.work += fill_stats.work;
}

}  // namespace rtd
