// The unified DBSCAN engine: two-phase union-find clustering over ANY
// NeighborIndex backend.
//
// This is the paper's Algorithm 3 with the neighbor queries abstracted out:
//   Phase 1 (core identification): one index query per point counts its
//     ε-neighbors; points with >= minPts neighbors (self included) are core.
//   Phase 2 (cluster formation): one query per core point re-discovers its
//     neighbors (no neighbor lists stored — O(n) memory, §III-D) and merges
//     clusters in a concurrent DisjointSet; border points are claimed
//     atomically so each joins exactly one cluster.
//
// RT-DBSCAN (core/rt_dbscan.cpp) is this engine over BvhRtIndex (or
// TriangleIndex for the §VI-C tessellated geometry); FDBSCAN
// (dbscan/fdbscan.cpp) is this engine over PointBvhIndex.  Swapping the
// index swaps the query substrate without touching the clustering logic,
// which is what makes backend comparisons honest.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "dbscan/core.hpp"
#include "dsu/atomic_disjoint_set.hpp"
#include "index/neighbor_index.hpp"

namespace rtd::dbscan {

/// Engine knobs shared by every backend.
struct IndexEngineOptions {
  /// Stop phase-1 counting at minPts (FDBSCAN §VI-B).  Honored by backends
  /// whose traversal can terminate; the RT backend ignores it (OptiX).
  bool early_exit = false;
  /// Launch queries in Morton (Z-curve) order of the points instead of
  /// input order (the RTNN ray-coherence optimization).  Results are
  /// unaffected; only scheduling changes.
  bool reorder_queries = false;
  /// Thread count; 0 = all hardware threads.
  int threads = 0;
};

/// Result of one engine run over an index.
struct IndexEngineResult {
  Clustering clustering;
  rt::LaunchStats phase1;  ///< core-identification launch
  rt::LaunchStats phase2;  ///< cluster-formation launch
  /// Neighbor counts per point, excluding self.  Exact without early_exit;
  /// capped at minPts-1 with it.
  std::vector<std::uint32_t> neighbor_counts;
};

/// Query launch order: identity, or Morton order of the points.
[[nodiscard]] std::vector<std::uint32_t> query_launch_order(
    std::span<const geom::Vec3> points, bool morton);

/// Phase 1 over any index: per-point ε-neighbor counts (excluding self)
/// into `counts`, queried in `order`.
rt::LaunchStats index_phase1(const index::NeighborIndex& index,
                             const Params& params,
                             std::span<const std::uint32_t> order,
                             bool early_exit, int threads,
                             std::vector<std::uint32_t>& counts);

/// Incremental phase-1 maintenance for a REMOVAL batch: for every id in
/// `removed`, one ε-query discovers its neighbors and decrements their
/// counts.  Must run while the removed ids are still LIVE in the index
/// (before try_remove) so the queries still resolve; decrements landing on
/// other members of the same batch are moot — the caller zeroes the counts
/// of every removed id afterwards.  Runs serially: batches are small by
/// design (the session's rebuild threshold bounds them) and the decrements
/// would otherwise race.
///
/// The discovered neighborhoods are also captured into the CSR pair
/// (`nbr_ids`, `nbr_starts`) — `nbr_starts[k]..nbr_starts[k+1]` spans
/// `removed[k]`'s neighbors — because the label-repair stage needs exactly
/// these lists (cut-adjacent cores and orphaned borders) and capturing
/// them here costs no extra queries.  Lists may contain other members of
/// the same batch; consumers filter by liveness.
///
/// Exception safety: the queries all run (and may throw) BEFORE any count
/// is touched; the decrements are a noexcept epilogue over the captured
/// CSR.  A throw leaves `counts` exactly as it was.
rt::LaunchStats index_phase1_remove(const index::NeighborIndex& index,
                                    float eps,
                                    std::span<const std::uint32_t> removed,
                                    std::vector<std::uint32_t>& counts,
                                    std::vector<std::uint32_t>& nbr_ids,
                                    std::vector<std::uint32_t>& nbr_starts);

/// Incremental phase-1 maintenance for an INSERT batch: for every new id in
/// [first_new, index.size()), one ε-query sets its own count and increments
/// each PRE-EXISTING neighbor's count (new-new pairs are covered by each
/// new point's own query).  Must run after the index absorbed the batch.
/// `counts` is grown to index.size().  Serial, like index_phase1_remove.
///
/// Like the removal twin, neighborhoods are captured first into the caller's
/// CSR scratch (`nbr_ids`, `nbr_starts` — row k spans the neighbors of id
/// first_new + k) and applied in a noexcept epilogue, so a throw during the
/// queries (or the `counts` growth, which happens pre-apply) leaves the
/// pre-existing entries of `counts` untouched.
rt::LaunchStats index_phase1_insert(const index::NeighborIndex& index,
                                    float eps, std::size_t first_new,
                                    std::vector<std::uint32_t>& counts,
                                    std::vector<std::uint32_t>& nbr_ids,
                                    std::vector<std::uint32_t>& nbr_starts);

/// Phase 2 over any index: concurrent union-find merges initiated by core
/// points (Alg. 3 lines 7-18); border points claimed atomically through
/// `claimed`.
rt::LaunchStats index_phase2(const index::NeighborIndex& index, float eps,
                             std::span<const std::uint32_t> order,
                             std::span<const std::uint8_t> is_core,
                             dsu::AtomicDisjointSet& dsu,
                             std::span<std::atomic<std::uint8_t>> claimed,
                             int threads);

/// Full run: phase 1, core flags, phase 2, label finalization.  Sets the
/// core/cluster phase timings and a total covering this call; the caller
/// owns index-build timing (it built the index) and overwrites the total
/// with a build-inclusive one where it reports timings.
IndexEngineResult cluster_with_index(const index::NeighborIndex& index,
                                     const Params& params,
                                     const IndexEngineOptions& options = {});

}  // namespace rtd::dbscan
