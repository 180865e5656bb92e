// FDBSCAN — Prokopenko et al. [18], the paper's primary baseline.
//
// A BVH-based, union-find DBSCAN that does NOT use the RT pipeline: it
// builds a BVH over the data points and answers ε-neighborhood queries with
// software volume-overlap tree traversals (a box around the query sphere,
// exact distance filter at the leaves).  Memory footprint is O(n): like
// RT-DBSCAN, it never stores neighbor lists and instead re-traverses in the
// cluster-formation phase.
//
// Since the NeighborIndex refactor this is the unified two-phase engine
// (dbscan/engine.hpp) over index::PointBvhIndex; set Params::index to swap
// the query backend (grid, dense-box, brute force, or the RT scene itself).
//
// The `early_exit` option reproduces the FDBSCAN optimization §VI-B
// discusses: core-identification traversal stops as soon as minPts neighbors
// have been found.  OptiX cannot express this (Intersection programs cannot
// terminate traversal), which is why RT-DBSCAN always pays the full
// traversal — the Fig 9 benchmarks measure exactly this trade.
#pragma once

#include <span>

#include "dbscan/core.hpp"
#include "rt/traversal.hpp"

namespace rtd::dbscan {

struct FdbscanOptions {
  /// Stop the phase-1 traversal once minPts neighbors are found (§VI-B).
  bool early_exit = false;
  /// Thread count of the index build and every launch; 0 = all hardware
  /// threads.
  int threads = 0;

  static FdbscanOptions with_early_exit(bool on) {
    FdbscanOptions opts;
    opts.early_exit = on;
    return opts;
  }
};

struct FdbscanResult {
  Clustering clustering;
  /// Software traversal work, comparable with rt::LaunchStats counters.
  rt::TraversalStats phase1_work;
  rt::TraversalStats phase2_work;
};

FdbscanResult fdbscan(std::span<const geom::Vec3> points,
                      const Params& params, const FdbscanOptions& options = {});

}  // namespace rtd::dbscan
