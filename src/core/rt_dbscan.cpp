#include "core/rt_dbscan.hpp"

#include <stdexcept>
#include <string>

#include "common/timer.hpp"
#include "dbscan/engine.hpp"
#include "index/bvh_rt_index.hpp"
#include "index/triangle_index.hpp"

namespace rtd::core {

namespace {

using index::IndexKind;

void validate_params(const dbscan::Params& params) {
  dbscan::require_eps(params.eps, "rt_dbscan");
  if (params.min_pts == 0) {
    throw std::invalid_argument("rt_dbscan: min_pts must be >= 1");
  }
  // rt_dbscan runs an RT scene; asking it for another backend is a caller
  // error (use rtd::cluster or the engine for backend-generic runs).
  if (params.index != IndexKind::kAuto && params.index != IndexKind::kBvhRt &&
      params.index != IndexKind::kTriangles) {
    throw std::invalid_argument(
        std::string("rt_dbscan: Params::index requests '") +
        index::to_string(params.index) +
        "' but rt_dbscan runs an RT scene (kBvhRt or kTriangles)");
  }
}

}  // namespace

RtDbscanResult rt_dbscan(std::span<const geom::Vec3> points,
                         const dbscan::Params& params,
                         const RtDbscanOptions& options) {
  validate_params(params);
  dbscan::require_finite(points);

  RtDbscanResult result;
  result.clustering.labels.assign(points.size(), dbscan::kNoiseLabel);
  result.clustering.is_core.assign(points.size(), 0);
  if (points.empty()) return result;

  // Input transformation + hardware BVH build (§III-B), then both phases
  // through the generic engine over the built scene.
  const Timer total;
  const auto cluster = [&](const auto& index) {
    result.accel_build = index.accel().build_stats();
    const double build_seconds = total.seconds();
    dbscan::IndexEngineOptions engine;
    engine.threads = options.threads;
    dbscan::IndexEngineResult run =
        dbscan::cluster_with_index(index, params, engine);
    result.clustering = std::move(run.clustering);
    result.clustering.timings.index_build_seconds = build_seconds;
    result.phase1 = run.phase1;
    result.phase2 = run.phase2;
    result.neighbor_counts = std::move(run.neighbor_counts);
  };
  if (params.index == IndexKind::kTriangles) {
    cluster(index::TriangleIndex(points, params.eps,
                                 options.triangle_subdivisions,
                                 options.threads));
  } else {
    cluster(index::BvhRtIndex(points, params.eps, options.threads));
  }
  result.clustering.timings.total_seconds = total.seconds();
  return result;
}

}  // namespace rtd::core
