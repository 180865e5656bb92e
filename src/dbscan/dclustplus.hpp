// CUDA-DClust+ — Poudel & Gowanlock [27].
//
// Grows many cluster "chains" in parallel from seed points, using a grid
// index structure for neighbor queries.  Chains that touch (core point of
// one chain within ε of a core point of another) are recorded as collisions
// and merged afterwards — the incremental cluster-growth design CUDA-DClust
// introduced, with CUDA-DClust+'s GPU-side index build.
//
// Port notes (deviations from the CUDA original; docs/BENCHMARKS.md lists
// the benches that compare against this port):
//  * chains run on OpenMP threads instead of CUDA blocks;
//  * neighbor counts are precomputed in a parallel pass so chain expansion
//    and collision handling always know point coreness (the original
//    interleaves this; precomputation changes constants, not asymptotics);
//  * chain collisions merge through a concurrent disjoint-set rather than a
//    dense collision matrix (equivalent result, no C^2 memory).
//
// Like the original, the expansion frontier stores per-chain point lists, so
// memory is O(n + chains); the grid index build is the dominant setup cost
// the paper calls out ("requires a significant amount of time for index
// construction").
#pragma once

#include <span>

#include "dbscan/core.hpp"
#include "dbscan/gdbscan.hpp"  // DeviceMemoryError

namespace rtd::dbscan {

struct DclustPlusOptions {
  /// Number of chains grown concurrently per round (the original's grid of
  /// chain blocks); 0 = 4x hardware threads.
  std::uint32_t chains_per_round = 0;
  int threads = 0;  ///< 0 = all hardware threads
};

struct DclustPlusResult {
  Clustering clustering;
  std::uint32_t chain_count = 0;      ///< chains grown in total
  std::uint32_t collision_count = 0;  ///< chain-chain merges recorded
  std::uint32_t round_count = 0;      ///< seed batches processed
  std::uint64_t distance_tests = 0;   ///< grid-candidate distance tests
  double index_build_seconds = 0.0;
  double expansion_seconds = 0.0;
};

DclustPlusResult dclust_plus(std::span<const geom::Vec3> points,
                             const Params& params,
                             const DclustPlusOptions& options = {});

}  // namespace rtd::dbscan
