// PointTree and DeltaTail — the trees the BVH-backed indexes query through.
//
// PointTree is a BVH over bare points (one degenerate box per point):
// PointBvhIndex's main tree, and the second tree both BVH backends build
// over their DELTA TAIL — the points a live session appended after the main
// build.  It is the one structure that keeps two traversal layouts, picked
// by size (kWideMinPoints).
//
// DeltaTail owns that second tree.  Appended ids are first scanned
// linearly (the RESIDUE); once the residue is long enough (see absorb),
// the next append re-indexes the whole tail with a fresh tree.  A query
// walks the tree, then scans the residue.  Built trees are immutable
// and shared by shared_ptr, so a cloned index version
// (NeighborIndex::clone) keeps its tail tree while the writer's version
// swaps in a new one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "geom/aabb.hpp"
#include "geom/vec3.hpp"
#include "rt/bvh.hpp"
#include "rt/traversal.hpp"
#include "rt/wide_bvh.hpp"

namespace rtd::index {

/// BVH over `points` (primitive ids are positions in that span), with the
/// wide layout from kWideMinPoints points up.
struct PointTree {
  /// Collapse to the wide layout at or above this many points.  Unlike the
  /// ray scenes, neither layout wins everywhere here: the exact tests of
  /// the wide leaves (up to rt::kWideLeafSize points each) outweigh the
  /// saved node pops on small trees, and the wide walk wins on large ones
  /// (docs/ARCHITECTURE.md, "The wide (8-ary) traversal layout").
  static constexpr std::size_t kWideMinPoints = 4096;

  /// Build on `threads` workers (common/parallel.hpp).
  PointTree(std::span<const geom::Vec3> points, int threads);

  /// Masked refit: tighten every node around the points whose dead[id] is
  /// 0 (`dead` covers at least points.size() ids); topology unchanged.
  /// The box pass runs on `threads` workers.
  void refit(std::span<const geom::Vec3> points,
             std::span<const std::uint8_t> dead, int threads);

  /// Candidate walk: on_candidate(id) for every point in a leaf whose box
  /// overlaps `box` (a superset — callers apply the exact filter).
  template <typename Callback>
  void overlap(const geom::Aabb& box, Callback&& on_candidate,
               rt::TraversalStats& stats) const {
    if (wide.empty()) {
      rt::traverse_overlap(bvh, box, std::forward<Callback>(on_candidate),
                           stats);
    } else {
      rt::traverse_overlap(wide, box, std::forward<Callback>(on_candidate),
                           stats);
    }
  }

  rt::Bvh bvh;
  rt::WideBvh wide;  ///< collapsed layout; empty below kWideMinPoints
};

/// The ids [first, size) an index absorbed after its main build: a tree
/// over the first `indexed` of them and a linearly scanned residue.
class DeltaTail {
 public:
  /// Unindexed tail ids a query scans linearly before absorb() re-indexes
  /// the tail.  Near the crossover where one small-tree walk costs what
  /// scanning this many points does.
  static constexpr std::size_t kResidue = 256;
  /// On a long tail the residue may also reach 1/kResidueShare of the
  /// indexed part, so a re-index — a build over the whole tail — runs once
  /// per that many appends and costs O(kResidueShare · log tail) per
  /// append amortized, instead of a whole-tail build every kResidue.
  static constexpr std::size_t kResidueShare = 32;

  /// An empty tail starting at id `first` (the main build's point count).
  explicit DeltaTail(std::size_t first) : first_(first), indexed_end_(first) {}

  /// Call after every append (`points` is the index's full span): once the
  /// residue passes max(kResidue, indexed / kResidueShare), build a fresh
  /// tree over the whole tail.  A throw leaves the tail as it was.
  void absorb(std::span<const geom::Vec3> points);

  /// on_candidate(id) -> rt::TraversalControl for every tail id whose point
  /// may lie in `box`: the tree's candidates, then every residue id; stops
  /// at the first kTerminate.  The tree walk adds its node and box-test
  /// counters to `stats` but no ray — it is part of the caller's query.
  template <typename Callback>
  void for_each_candidate(std::span<const geom::Vec3> points,
                          const geom::Aabb& box, rt::TraversalStats& stats,
                          Callback&& on_candidate) const {
    if (tree_) {
      const std::uint64_t rays = stats.rays;
      const auto base = static_cast<std::uint32_t>(first_);
      bool stopped = false;
      tree_->overlap(
          box,
          [&](std::uint32_t local) {
            const rt::TraversalControl c = on_candidate(base + local);
            stopped = c == rt::TraversalControl::kTerminate;
            return c;
          },
          stats);
      stats.rays = rays;
      if (stopped) return;
    }
    for (auto j = static_cast<std::uint32_t>(indexed_end_); j < points.size();
         ++j) {
      if (on_candidate(j) == rt::TraversalControl::kTerminate) return;
    }
  }

 private:
  std::size_t first_;        ///< first tail id
  std::size_t indexed_end_;  ///< tail ids below this are in tree_
  std::shared_ptr<const PointTree> tree_;  ///< immutable: versions share it
};

}  // namespace rtd::index
