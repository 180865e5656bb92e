// RT-kNN — k-nearest-neighbor search on the RT device.
//
// The paper's conclusion names this as future work: "removing the
// fixed-radius constraint for neighbor searches to accelerate a wider range
// of applications."  The fixed-radius constraint comes from the input
// transformation (all spheres share radius ε), so kNN is solved with
// *rounds* of fixed-radius queries, the strategy of RTNN [Zhu, PPoPP'22]:
//
//   1. pick an initial radius from the average point density such that a
//      sphere of that radius is expected to hold ~k points;
//   2. run the standard RT-FindNeighborhood launch, keeping the k nearest
//      hits per query in a bounded max-heap;
//   3. a query is CONVERGED when its heap holds k points whose k-th
//      distance is <= the current radius (every point within the radius is
//      guaranteed reported, so nothing nearer can exist outside the heap);
//   4. refit the sphere GAS to the grown radius (the §VI-B accel update:
//      one index::BvhRtIndex is built per call and try_set_eps moves its
//      radius) and relaunch only the unconverged queries, until all
//      converge.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/vec3.hpp"
#include "rt/traversal.hpp"

namespace rtd::core {

struct RtKnnOptions {
  /// Starting search radius (finite, >= 0); 0 = derive from dataset
  /// density (recommended).
  float initial_radius = 0.0f;
  /// Radius multiplier between rounds (finite, > 1).
  float growth = 2.0f;
  /// Safety cap on rounds, >= 1 (radius grows geometrically, so this
  /// bounds the radius at initial * growth^(max_rounds - 1)).
  int max_rounds = 24;
  /// Thread count of the scene build, the refits and the launches; 0 = all
  /// hardware threads.
  int threads = 0;
};

struct RtKnnResult {
  std::uint32_t k = 0;
  /// Row-major [n x k]: indices of the k nearest other points of point i,
  /// ascending by distance.  Padded with index::kNoSelf when the dataset has
  /// fewer than k+1 points.
  std::vector<std::uint32_t> indices;
  /// Matching distances (not squared); padded with +inf.
  std::vector<float> distances;

  int rounds = 0;                 ///< fixed-radius rounds executed
  double accel_build_seconds = 0; ///< GAS build + per-round refit time
  rt::LaunchStats launches;       ///< aggregated over all rounds

  [[nodiscard]] std::span<const std::uint32_t> neighbors_of(
      std::size_t i) const {
    return {indices.data() + i * k, k};
  }
  [[nodiscard]] std::span<const float> distances_of(std::size_t i) const {
    return {distances.data() + i * k, k};
  }
};

/// All-points k-nearest-neighbors (excluding self).  k must be >= 1.
RtKnnResult rt_knn(std::span<const geom::Vec3> points, std::uint32_t k,
                   const RtKnnOptions& options = {});

}  // namespace rtd::core
