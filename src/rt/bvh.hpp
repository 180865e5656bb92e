// Bounding Volume Hierarchy — the acceleration structure RT cores build and
// traverse in hardware (§II-A, §II-B).  This is the simulator's equivalent of
// the opaque OptiX acceleration structure.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geom/aabb.hpp"

namespace rtd::rt {

/// One BVH node, 32 bytes of bounds + 8 bytes of topology.
///
/// Internal nodes: `left_or_first` is the index of the left child and the
/// right child is at `left_or_first + 1` (children are allocated as adjacent
/// pairs); `count == 0`.  Leaves: `left_or_first` indexes into
/// `Bvh::prim_index` and `count > 0` is the number of primitives.
struct BvhNode {
  geom::Aabb bounds;
  std::uint32_t left_or_first = 0;
  std::uint32_t count = 0;

  [[nodiscard]] bool is_leaf() const { return count > 0; }
};

/// Statistics reported by a build — the simulator's observable substitute for
/// the paper's "BVH build time" measurements.
struct BuildStats {
  double build_seconds = 0.0;
  std::uint32_t node_count = 0;
  std::uint32_t leaf_count = 0;
  std::uint32_t max_depth = 0;
  float sah_cost = 0.0f;  ///< sum over nodes of area(node)/area(root)
};

/// Flattened BVH over `prim_count` primitives.  Primitive bounds are supplied
/// by the builder caller; the tree stores only a permutation of primitive ids.
/// It is the build intermediate and the refit source of the wide layout
/// (rt/wide_bvh.hpp) every ray scene walks; only index::PointTree walks it
/// directly, below its wide-layout threshold.
struct Bvh {
  std::vector<BvhNode> nodes;          ///< nodes[0] is the root
  std::vector<std::uint32_t> prim_index;  ///< leaf ranges index this table
  geom::Aabb scene_bounds;
  BuildStats stats;

  [[nodiscard]] bool empty() const { return nodes.empty(); }
  [[nodiscard]] std::size_t prim_count() const { return prim_index.size(); }

  /// Structural validation used by tests: every node's bounds contain its
  /// children (or its primitives), leaves partition [0, prim_count), and the
  /// topology is a proper binary tree.  Returns an empty string when valid,
  /// otherwise a description of the first violation.
  [[nodiscard]] std::string validate(
      std::span<const geom::Aabb> prim_bounds) const;

  /// Refit: recompute all node bounds for updated primitive bounds without
  /// rebuilding the topology ("optixAccelBuild with
  /// OPTIX_BUILD_OPERATION_UPDATE").  Valid whenever the primitive set and
  /// order are unchanged — exactly the case when RT-DBSCAN's ε changes,
  /// since the LBVH topology depends only on the sphere centers.  O(n),
  /// roughly 5-10x cheaper than a rebuild.
  void refit(std::span<const geom::Aabb> prim_bounds);

  /// Masked refit: like refit(), but primitives with dead[prim] != 0 are
  /// excluded from the leaf unions, shrinking node bounds around the LIVE
  /// primitives only (incremental removal maintenance — the topology keeps
  /// the dead slots, traversal just never tightens onto them again).  A leaf
  /// whose primitives are ALL dead keeps its previous bounds: a stale box is
  /// conservative, and the exact filter drops its dead candidates.
  /// `dead` must cover every primitive id (size >= prim_count()).
  void refit(std::span<const geom::Aabb> prim_bounds,
             std::span<const std::uint8_t> dead);
};

/// Maximum primitives per binary leaf.  RT hardware uses small leaves; 4 is
/// a common software default and what we validated against brute force.
inline constexpr std::uint32_t kLeafSize = 4;

/// Build a BVH over primitives with the given bounds.  This is the
/// simulator's `optixAccelBuild`, and like the hardware builders it is an
/// LBVH: primitives sorted along a Morton curve of their centroids, the
/// tree derived from the sorted order — very fast builds, slightly worse
/// traversal quality than a SAH builder (which measured slower end to end
/// here: its 6-10x longer builds never paid back in traversal).  The
/// Morton codes and their radix sort run on `threads` workers
/// (common/parallel.hpp: 0 = hardware_concurrency()); the tree is the same at
/// every thread count.
Bvh build_bvh(std::span<const geom::Aabb> prim_bounds, int threads = 0);

}  // namespace rtd::rt
