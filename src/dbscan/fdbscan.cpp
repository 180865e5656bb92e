#include "dbscan/fdbscan.hpp"

#include <stdexcept>

#include "common/timer.hpp"
#include "dbscan/engine.hpp"
#include "index/neighbor_index.hpp"

namespace rtd::dbscan {

FdbscanResult fdbscan(std::span<const geom::Vec3> points,
                      const Params& params, const FdbscanOptions& options) {
  require_eps(params.eps, "fdbscan");
  if (params.min_pts == 0) {
    throw std::invalid_argument("fdbscan: min_pts must be >= 1");
  }
  require_finite(points);

  FdbscanResult result;
  if (points.empty()) {
    return result;
  }

  Timer total;
  Timer phase;

  // Index build behind the NeighborIndex contract.  FDBSCAN's traditional
  // substrate is the point BVH (no ε inflation — the query volume carries
  // the radius, which is what lets it re-use one tree for any ε); kAuto
  // keeps that, an explicit Params::index swaps it.
  const index::IndexKind kind =
      index::resolve_auto(params.index, index::IndexKind::kPointBvh);
  const auto idx = index::make_index(points, params.eps, kind,
                                     {.threads = options.threads});
  const double build_seconds = phase.seconds();

  IndexEngineOptions engine_options;
  engine_options.early_exit = options.early_exit;
  engine_options.threads = options.threads;
  IndexEngineResult run = cluster_with_index(*idx, params, engine_options);

  result.clustering = std::move(run.clustering);
  result.phase1_work = run.phase1.work;
  result.phase2_work = run.phase2.work;
  result.clustering.timings.index_build_seconds = build_seconds;
  result.clustering.timings.total_seconds = total.seconds();
  return result;
}

}  // namespace rtd::dbscan
