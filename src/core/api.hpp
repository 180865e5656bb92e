// rtdbscan public umbrella header.
//
// Most users need exactly this:
//
//   #include "core/api.hpp"
//
//   std::vector<rtd::geom::Vec3> points = ...;        // z = 0 for 2-D data
//
//   // One-shot:
//   auto result = rtd::cluster(points, /*eps=*/0.5f, /*min_pts=*/10);
//   // result.labels[i] in [0, result.cluster_count) or rtd::kNoise
//
//   // Multi-run session (parameter exploration — the index is built once,
//   // REFIT on eps changes, and neighbor counts are cached across min_pts):
//   rtd::Clusterer session(points);
//   rtd::ClusterResult a = session.run(0.5f, 10);   // copy to keep: run()
//   rtd::ClusterResult b = session.run(0.5f, 20);   // returns a view into
//   auto curve = session.sweep(eps_values, 10);     // session storage
//
//   // Pick another neighbor-query backend than the default RT pipeline:
//   auto grid = rtd::cluster(points, 0.5f, 10, rtd::index::IndexKind::kGrid);
//
// The RT-FindNeighborhood primitive (Alg. 2) outside DBSCAN is a
// NeighborIndex: make_index(points, eps, IndexKind::kBvhRt), or
// index/bvh_rt_index.hpp directly.  For baselines, custom NeighborIndex
// backends or the RT scenes themselves (rt/scene.hpp), include the
// specific headers.
#pragma once

#include "core/clusterer.hpp"
#include "core/rt_dbscan.hpp"
#include "dbscan/core.hpp"
#include "dbscan/equivalence.hpp"
#include "index/neighbor_index.hpp"

namespace rtd {

/// Cluster `points` with DBSCAN(eps, min_pts).
///
/// Exactly one run() of a throwaway borrowing rtd::Clusterer session with
/// `backend` and otherwise default Options — use the session directly when
/// you will run more than once on the same data (parameter sweeps reuse the
/// index; this function rebuilds it every call).
///
/// `backend` selects the neighbor-index backend answering the ε-queries
/// (see index::IndexKind and docs/ARCHITECTURE.md).  The default kAuto is
/// kBvhRt, the paper's RT pipeline.  All backends produce equivalent
/// clusterings (identical core points and clusters; border-point ties may
/// resolve differently, as DBSCAN permits).
ClusterResult cluster(std::span<const geom::Vec3> points, float eps,
                      std::uint32_t min_pts,
                      index::IndexKind backend = index::IndexKind::kAuto);

}  // namespace rtd
