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

/// Which traversal layout the structures owning a BVH use at query time.
///
/// kBinary walks the 2-ary node tree below directly; kWide collapses it
/// into the 8-ary structure-of-arrays layout of rt/wide_bvh.hpp, whose
/// one-node-tests-8-children kernel is the fast path on large trees.
/// kAuto picks wide above a measured primitive-count threshold
/// (rt::kWideBvhMinPrims).  This is a layout choice of the traversal
/// *consumers* (SphereAccel, TriangleAccel, index::PointBvhIndex) —
/// build_bvh() always produces the binary tree; the wide layout is
/// derived from it.
enum class TraversalWidth : std::uint8_t {
  kAuto = 0,
  kBinary,
  kWide,
};

const char* to_string(TraversalWidth width);

/// Parse "auto" / "binary" / "wide" (bench/CLI width flags).
/// Returns false and leaves `out` untouched on an unknown name.
bool parse_traversal_width(const char* name, TraversalWidth& out);

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

/// Build settings.
struct BuildOptions {
  /// Maximum primitives per leaf.  RT hardware uses small leaves; 4 is a
  /// common software default and what we validated against brute force.
  std::uint32_t leaf_size = 4;
  /// Parallelize the build (Morton codes and the radix sort).
  bool parallel = true;
  /// Traversal layout the owning structure derives from the built tree
  /// (ignored by build_bvh itself — see TraversalWidth).
  TraversalWidth width = TraversalWidth::kAuto;
};

/// Build a BVH over primitives with the given bounds.  This is the
/// simulator's `optixAccelBuild`, and like the hardware builders it is an
/// LBVH: primitives sorted along a Morton curve of their centroids, the
/// tree derived from the sorted order — very fast builds, slightly worse
/// traversal quality than a SAH builder (which measured slower end to end
/// here: its 6-10x longer builds never paid back in traversal).
Bvh build_bvh(std::span<const geom::Aabb> prim_bounds,
              const BuildOptions& options = {});

}  // namespace rtd::rt
