// Wide (8-ary) BVH — the binary rt::Bvh collapsed into a shallow tree whose
// nodes store all eight child bounds in structure-of-arrays layout.
//
// One traversal step against a WideBvhNode slab-tests eight children with
// straight-line, auto-vectorizable code instead of popping and branch-testing
// seven binary nodes, which is how real RT hardware amortizes its traversal
// units.  The wide tree is a pure *layout* derived from the binary tree: it
// shares the primitive permutation (`prim_index` is copied verbatim), visits
// the exact same candidate set, and can be REFIT from a refit binary tree
// without re-collapsing (the lane→binary-node mapping is retained).
//
// Children within a node are sorted by centroid along the node's widest
// axis (`sort_axis`), so a directed traversal can visit them front-to-back
// by walking the lanes in axis order or reversed — see rt/traversal.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geom/aabb.hpp"
#include "rt/bvh.hpp"

namespace rtd::rt {

/// Branching factor of the wide tree.
inline constexpr std::uint32_t kWideBvhArity = 8;

/// kAuto threshold: collapse to the wide layout at or above this primitive
/// count.  Measured on the single-core dev container (taxi sweep, exact
/// filtered ε-queries): the wide walk wins 1.2-1.9x at every size from 1K
/// up, and the O(n) collapse costs ~the work of a few hundred queries —
/// amortized by any full query pass.  Below this threshold trees are
/// small enough that single-shot uses would not amortize the collapse
/// (and index::choose_index_kind picks non-BVH backends there anyway).
inline constexpr std::size_t kWideBvhMinPrims = 4096;

/// Resolve a TraversalWidth against a primitive count: should the owning
/// structure collapse its binary tree into a wide layout?
///
/// Empty-input rule (uniform across widths): zero primitives NEVER build a
/// wide tree — there is no binary tree to collapse either, and every walk
/// on an empty structure returns immediately — so an explicit kWide
/// request resolves to the (trivial) binary path at prim_count == 0,
/// exactly like kAuto does.  For any non-zero count an
/// explicit request is honored as asked; only kAuto applies the
/// kWideBvhMinPrims amortization threshold.  Covered by
/// tests/test_wide_bvh.cpp (WidthResolution).
[[nodiscard]] inline bool use_wide_traversal(TraversalWidth width,
                                             std::size_t prim_count) {
  if (prim_count == 0) return false;
  if (width == TraversalWidth::kBinary) return false;
  if (width == TraversalWidth::kAuto) return prim_count >= kWideBvhMinPrims;
  return true;  // kWide: explicit request, any non-empty size
}

/// Upper bound on the traversal stack for a wide walk: a pop can push up to
/// (arity - 1) net entries, and the collapse never produces a tree deeper
/// than the 64-level bound the binary builders guarantee.
inline constexpr std::size_t kWideStackCapacity = 64 * (kWideBvhArity - 1) + 1;

/// Largest leaf a single lane can reference (count is 16-bit to keep the
/// node at four cache lines).  Binary leaves above this — only possible
/// with an absurd BuildOptions::leaf_size — make collapse_bvh() return an
/// empty tree, and the owners fall back to the binary walk.
inline constexpr std::uint32_t kWideMaxLeafCount = 0xffff;

/// One wide node: eight child slabs in SoA layout plus per-lane topology,
/// exactly 256 bytes (four cache lines).
///
/// `lo[axis][lane]` / `hi[axis][lane]` are the child bounds (axis 0 = x,
/// 1 = y, 2 = z).  Lanes `[0, child_count)` are real children; the bounds of
/// unused lanes are the inverted empty box, and their topology fields are
/// zero — traversal must still iterate only the real lanes.  A lane with
/// `count[lane] > 0` is a leaf covering `prim_index[child[lane] ..
/// child[lane] + count[lane])`; `count[lane] == 0` makes `child[lane]` the
/// index of another wide node.
struct alignas(64) WideBvhNode {
  float lo[3][kWideBvhArity];
  float hi[3][kWideBvhArity];
  std::uint32_t child[kWideBvhArity];
  std::uint16_t count[kWideBvhArity];
  std::uint8_t child_count = 0;
  /// Axis the children are sorted on (ascending centroid) — the node's
  /// widest axis at collapse time; traversal uses it for front-to-back
  /// lane ordering.
  std::uint8_t sort_axis = 0;

  /// Bit mask of the real lanes.
  [[nodiscard]] std::uint32_t lane_mask() const {
    return (1u << child_count) - 1u;
  }

  [[nodiscard]] bool lane_is_leaf(unsigned lane) const {
    return count[lane] > 0;
  }
};

static_assert(sizeof(WideBvhNode) == 256, "wide node must stay 4 lines");

/// Flattened wide BVH.  nodes[0] is the root; `prim_index` is the binary
/// tree's permutation, copied so the structure is self-contained.
struct WideBvh {
  std::vector<WideBvhNode> nodes;
  std::vector<std::uint32_t> prim_index;
  geom::Aabb scene_bounds;
  std::uint32_t max_depth = 0;

  [[nodiscard]] bool empty() const { return nodes.empty(); }
  [[nodiscard]] std::size_t prim_count() const { return prim_index.size(); }

  /// Re-derive every lane's bounds from a REFIT binary tree (same topology,
  /// updated bounds — the ε-sweep path).  O(nodes); no re-collapse.
  void refit_from(const Bvh& source);

  /// Structural validation used by tests: lanes reference valid nodes /
  /// primitive ranges, leaves partition [0, prim_count), every lane's
  /// bounds contain what it covers.  Empty string when valid.
  [[nodiscard]] std::string validate(
      std::span<const geom::Aabb> prim_bounds) const;

  /// Per node, the binary-tree node each lane was cut at — the mapping
  /// refit_from() replays.  Cold data: kept out of WideBvhNode so the hot
  /// traversal footprint stays six SoA slabs + topology.
  std::vector<std::array<std::uint32_t, kWideBvhArity>> source_node;
};

/// Default leaf width of the collapse: any binary subtree holding at most
/// this many primitives folds into ONE leaf lane (its primitives are a
/// contiguous `prim_index` range, so the lane scans them linearly).
/// Coarser than the binary leaf size on purpose — each lane absorbs a
/// bottom subtree, cutting dependent node fetches per query; the slightly
/// larger candidate sets are cheap next to the saved pops (measured sweet
/// spot on the 1M uniform sweep, bench_micro_bvh).
inline constexpr std::uint32_t kWideLeafSize = 8;

/// Collapse a binary BVH into the wide layout.  Greedy: each wide node
/// starts from one binary node and repeatedly expands the largest-area
/// expandable child until it holds kWideBvhArity children; binary subtrees
/// with at most `wide_leaf_size` primitives become leaf lanes over their
/// contiguous prim_index range.  The wide walk therefore surfaces a
/// (slightly) CONSERVATIVE superset of the binary walk's candidates —
/// exactness lives in the caller's filter, same as for the binary tree's
/// own inflated leaf boxes.  An empty source produces an empty wide tree;
/// a single-leaf source produces one wide node with one leaf lane.
[[nodiscard]] WideBvh collapse_bvh(const Bvh& source,
                                   std::uint32_t wide_leaf_size =
                                       kWideLeafSize);

/// Materialize the wide layout an owner's BuildOptions::width selects,
/// shared by every structure that owns a binary tree (SphereAccel,
/// TriangleAccel, index::PointTree).  Empty when the width resolves to
/// binary, or when collapse_bvh() could not represent the tree (oversize
/// leaf) — the traversal dispatch falls back to the binary walk then
/// (rt/traversal.hpp).
[[nodiscard]] WideBvh derive_wide_layout(const Bvh& bvh,
                                         const BuildOptions& options,
                                         std::size_t prim_count);

}  // namespace rtd::rt
