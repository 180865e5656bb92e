// RT-DBSCAN — the paper's contribution (Algorithm 3).
//
// Two-phase union-find DBSCAN whose ε-neighborhood queries run as ray
// tracing queries on the RT device:
//   Phase 1 (core identification): one ray per point counts its neighbors;
//     points with >= minPts neighbors (self included) are core points.
//   Phase 2 (cluster formation): one ray per core point re-discovers its
//     neighbors (no neighbor lists are ever stored — O(n) memory, §III-D)
//     and merges clusters in a concurrent DisjointSet; border points are
//     claimed atomically so each joins exactly one cluster.
//
// Both phases are the generic engine (dbscan::cluster_with_index) over an
// RT backend, launching rays in Morton order of their origins — the RTNN
// [Zhu, PPoPP'22] ray-coherence optimization the paper's related-work
// section says "would further improve performance".  Params::index picks
// the geometry:
//   kBvhRt (or kAuto, the default, §III): custom sphere primitives,
//     clustering logic in the Intersection program, AnyHit disabled.
//   kTriangles (§VI-C): each ε-sphere tessellated into triangles so the
//     primitive test runs "in hardware", with hits delivered through the
//     AnyHit program — the configuration the paper measured 2-5x slower.
// Multi-run sessions over either geometry are rtd::Clusterer with that
// backend.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dbscan/core.hpp"
#include "rt/bvh.hpp"
#include "rt/traversal.hpp"

namespace rtd::core {

struct RtDbscanOptions {
  /// Icosphere subdivision level for Params::index == kTriangles
  /// (20 * 4^s triangles/point).
  int triangle_subdivisions = 1;
  /// Thread count of the scene build, the launch order and both launches;
  /// 0 = all hardware threads.
  int threads = 0;
};

struct RtDbscanResult {
  dbscan::Clustering clustering;
  /// Per-phase launch statistics (hardware work counters + wall time).
  rt::LaunchStats phase1;
  rt::LaunchStats phase2;
  /// Acceleration-structure build statistics (the cost §V-D analyzes).
  rt::BuildStats accel_build;
  /// Neighbor counts per point, excluding self — retained because, unlike
  /// early-exit approaches, the full traversal computes them anyway; they
  /// make minPts-only re-runs skip phase 1 entirely (§VI-B).
  std::vector<std::uint32_t> neighbor_counts;
};

/// One-shot RT-DBSCAN run.  Params::index must be kAuto, kBvhRt or
/// kTriangles (std::invalid_argument otherwise).
RtDbscanResult rt_dbscan(std::span<const geom::Vec3> points,
                         const dbscan::Params& params,
                         const RtDbscanOptions& options = {});

}  // namespace rtd::core
