// BVH traversal — the operation RT cores execute in hardware (§II-B1).
//
// Traversal is an iterative stack walk: a ray descends only into nodes whose
// AABB it intersects; at leaves, candidate primitives are handed to the
// caller (the Intersection program in OptiX terms).  The caller must apply
// its own exact primitive test, exactly as the paper's Intersection program
// re-checks `dist(q, s) <= eps` (Alg. 2 line 6) because "it is possible for
// the ray to intersect the bounding volume but completely miss the object".
//
// Work counters substitute for the hardware's opaque acceleration: every
// experiment can report nodes visited / AABB tests / Intersection-program
// calls alongside wall-clock time.
#pragma once

#include <bit>
#include <cstdint>
#include <utility>

#include "common/prefetch.hpp"
#include "geom/ray.hpp"
#include "rt/bvh.hpp"
#include "rt/wide_bvh.hpp"


namespace rtd::rt {

/// Hardware work counters for one or more traversals.
struct TraversalStats {
  std::uint64_t rays = 0;           ///< traversals performed
  std::uint64_t nodes_visited = 0;  ///< BVH nodes popped from the stack
  std::uint64_t aabb_tests = 0;     ///< ray-box slab tests
  std::uint64_t isect_calls = 0;    ///< Intersection-program invocations
  std::uint64_t anyhit_calls = 0;   ///< AnyHit-program invocations (§VI-C)

  TraversalStats& operator+=(const TraversalStats& o) {
    rays += o.rays;
    nodes_visited += o.nodes_visited;
    aabb_tests += o.aabb_tests;
    isect_calls += o.isect_calls;
    anyhit_calls += o.anyhit_calls;
    return *this;
  }
};

/// Result of one batched launch (a set of traversals): wall time plus
/// hardware counters summed over rays.  Produced by rt::Context::launch and
/// by the batched index::NeighborIndex::query_all.
struct LaunchStats {
  double seconds = 0.0;   ///< wall-clock time of the whole batch
  TraversalStats work;    ///< hardware work counters summed over all rays

  /// Average BVH nodes visited per ray — the quantity the paper speculates
  /// about in §V-C ("the hardware made relatively few calls to the
  /// intersection program").
  [[nodiscard]] double nodes_per_ray() const {
    return work.rays ? static_cast<double>(work.nodes_visited) /
                           static_cast<double>(work.rays)
                     : 0.0;
  }
  /// Average Intersection-program invocations per ray.
  [[nodiscard]] double isect_per_ray() const {
    return work.rays ? static_cast<double>(work.isect_calls) /
                           static_cast<double>(work.rays)
                     : 0.0;
  }
};

// The parallel_launch harness that used to live here moved to
// rt/parallel_launch.hpp — include that header to run batched launches.

/// What a primitive callback tells the traversal loop to do next.
///
/// OptiX semantics: an Intersection program cannot stop BVH traversal (the
/// paper's §VI-B), so the RT pipeline always returns kContinue.  kTerminate
/// exists for the *software* consumers of this BVH — FDBSCAN's early-exit
/// optimization terminates as soon as minPts neighbors are found.
enum class TraversalControl { kContinue, kTerminate };

/// Walk the BVH with `ray`; invoke `on_candidate(prim_id)` for every
/// primitive in every leaf whose AABB the ray intersects.
///
/// `on_candidate` must be invocable as `TraversalControl(std::uint32_t)`.
/// Counters accumulate into `stats`.
template <typename Callback>
void traverse(const Bvh& bvh, const geom::Ray& ray, Callback&& on_candidate,
              TraversalStats& stats) {
  if (bvh.empty()) return;
  ++stats.rays;

  // Hardware traversal stacks are shallow and fixed-size; 64 covers any tree
  // our builders produce (depth is checked in BuildStats and by tests).
  std::uint32_t stack[64];
  int top = 0;

  ++stats.aabb_tests;
  if (!geom::ray_intersects_aabb(ray, bvh.nodes[0].bounds)) return;
  stack[top++] = 0;

  while (top > 0) {
    const BvhNode& node = bvh.nodes[stack[--top]];
    ++stats.nodes_visited;

    if (node.is_leaf()) {
      for (std::uint32_t i = node.left_or_first;
           i < node.left_or_first + node.count; ++i) {
        if (on_candidate(bvh.prim_index[i]) == TraversalControl::kTerminate) {
          return;
        }
      }
      continue;
    }

    const std::uint32_t left = node.left_or_first;
    stats.aabb_tests += 2;
    if (geom::ray_intersects_aabb(ray, bvh.nodes[left].bounds)) {
      stack[top++] = left;
    }
    if (geom::ray_intersects_aabb(ray, bvh.nodes[left + 1].bounds)) {
      stack[top++] = left + 1;
    }
  }
}

/// Volume-overlap traversal: invoke `on_candidate(prim_id)` for every
/// primitive in every leaf whose AABB overlaps `query`.
///
/// This is the *software* tree query FDBSCAN performs on its BVH (a box
/// around the ε-sphere of the query point) — no rays involved.  It shares
/// the node/test counters so RT and non-RT approaches are directly
/// comparable in traversal work.
template <typename Callback>
void traverse_overlap(const Bvh& bvh, const geom::Aabb& query,
                      Callback&& on_candidate, TraversalStats& stats) {
  if (bvh.empty()) return;
  ++stats.rays;

  std::uint32_t stack[64];
  int top = 0;

  ++stats.aabb_tests;
  if (!query.overlaps(bvh.nodes[0].bounds)) return;
  stack[top++] = 0;

  while (top > 0) {
    const BvhNode& node = bvh.nodes[stack[--top]];
    ++stats.nodes_visited;

    if (node.is_leaf()) {
      for (std::uint32_t i = node.left_or_first;
           i < node.left_or_first + node.count; ++i) {
        if (on_candidate(bvh.prim_index[i]) == TraversalControl::kTerminate) {
          return;
        }
      }
      continue;
    }

    const std::uint32_t left = node.left_or_first;
    stats.aabb_tests += 2;
    if (query.overlaps(bvh.nodes[left].bounds)) {
      stack[top++] = left;
    }
    if (query.overlaps(bvh.nodes[left + 1].bounds)) {
      stack[top++] = left + 1;
    }
  }
}

// ---------------------------------------------------------------------------
// Wide (8-ary) walks — the SoA kernel of rt/wide_bvh.hpp.  Same
// TraversalStats semantics as the binary walks above: one `ray` per
// traversal, one `nodes_visited` per node popped, one `aabb_tests` per
// child slab tested (the root's bounds count once, exactly as the binary
// walk tests the root before descending).  Candidate sets are a
// CONSERVATIVE SUPERSET of the binary walk's (leaf lanes absorb whole
// bottom subtrees, rt::kWideLeafSize) — callers apply the same exact
// primitive filter they already owe the binary tree's inflated leaf
// boxes, so exact results are identical (test-enforced).  A wide node
// resolves eight children per pop: nodes_visited drops ~4x, which is the
// measured point of the layout, and the counters make it visible.
// ---------------------------------------------------------------------------

namespace detail {

/// Slab-test all 8 lanes of `node` against a +z axis ray with tmin = 0 —
/// the shape of every Ray::point_query (§III-C).  Reduces to per-lane
/// containment on x/y (the d == 0 slab branch of the scalar test) and the
/// inv = 1 slab window on z, so it skips all multiplies; results are
/// bit-identical to the general kernel below.
inline std::uint32_t wide_point_ray_hits(const WideBvhNode& node,
                                         const geom::Ray& ray) {
  const float ox = ray.origin.x;
  const float oy = ray.origin.y;
  const float oz = ray.origin.z;
  const float tmax = ray.tmax;
  std::uint32_t hits = 0;
  for (unsigned i = 0; i < kWideBvhArity; ++i) {
    const bool hit = ox >= node.lo[0][i] && ox <= node.hi[0][i] &&
                     oy >= node.lo[1][i] && oy <= node.hi[1][i] &&
                     node.lo[2][i] - oz <= tmax && node.hi[2][i] >= oz;
    hits |= static_cast<std::uint32_t>(hit) << i;
  }
  return hits;
}

/// Slab-test all 8 lanes of `node` against the ray; returns the lane hit
/// mask.  Per-lane math is EXACTLY geom::ray_intersects_aabb's (same
/// operations, same order), so the wide walk surfaces bit-identical
/// candidate sets; it is simply laid out as eight straight-line lane
/// updates per axis that the compiler auto-vectorizes.  Unused lanes hold
/// the inverted empty box; their garbage verdicts are masked off by the
/// callers (hits & lane_mask()).
inline std::uint32_t wide_ray_hits(const WideBvhNode& node,
                                   const geom::Ray& ray) {
  float t0[kWideBvhArity];
  float t1[kWideBvhArity];
  std::uint32_t alive = (1u << kWideBvhArity) - 1;
  for (unsigned i = 0; i < kWideBvhArity; ++i) {
    t0[i] = ray.tmin;
    t1[i] = ray.tmax;
  }
  for (std::size_t axis = 0; axis < 3; ++axis) {
    const float o = ray.origin[axis];
    const float d = ray.direction[axis];
    if (d != 0.0f) {
      const float inv = 1.0f / d;
      for (unsigned i = 0; i < kWideBvhArity; ++i) {
        const float tn = (node.lo[axis][i] - o) * inv;
        const float tf = (node.hi[axis][i] - o) * inv;
        const float near_t = tn < tf ? tn : tf;
        const float far_t = tn < tf ? tf : tn;
        t0[i] = near_t > t0[i] ? near_t : t0[i];
        t1[i] = far_t < t1[i] ? far_t : t1[i];
      }
    } else {
      std::uint32_t inside = 0;
      for (unsigned i = 0; i < kWideBvhArity; ++i) {
        inside |= static_cast<std::uint32_t>(o >= node.lo[axis][i] &&
                                             o <= node.hi[axis][i])
                  << i;
      }
      alive &= inside;
    }
  }
  std::uint32_t hits = 0;
  for (unsigned i = 0; i < kWideBvhArity; ++i) {
    hits |= static_cast<std::uint32_t>(t0[i] <= t1[i]) << i;
  }
  return hits & alive;
}

/// Overlap-test all 8 lanes against `query` (the volume form of the same
/// kernel).
inline std::uint32_t wide_overlap_hits(const WideBvhNode& node,
                                       const geom::Aabb& query) {
  std::uint32_t hits = (1u << kWideBvhArity) - 1;
  for (std::size_t axis = 0; axis < 3; ++axis) {
    const float q_lo = query.lo[axis];
    const float q_hi = query.hi[axis];
    std::uint32_t axis_hits = 0;
    for (unsigned i = 0; i < kWideBvhArity; ++i) {
      axis_hits |= static_cast<std::uint32_t>(q_lo <= node.hi[axis][i] &&
                                              q_hi >= node.lo[axis][i])
                   << i;
    }
    hits &= axis_hits;
  }
  return hits;
}

}  // namespace detail

/// Walk a wide BVH with `ray`; semantics identical to the binary
/// traverse() above.  Internal children are pushed so the nearest
/// one along each node's sort axis is popped first (the collapse pre-sorts
/// lanes ascending; the walk flips direction with the ray) — a near-first
/// SUBTREE order that helps kTerminate-capable callers exit early.  Leaf
/// lanes resolve inline in far-to-near order within their node, so no
/// global near-first ordering of candidates is guaranteed; callers
/// needing distance order (a future closest-hit query) must sort.
template <typename Callback>
void traverse(const WideBvh& bvh, const geom::Ray& ray,
              Callback&& on_candidate, TraversalStats& stats) {
  if (bvh.empty()) return;
  ++stats.rays;

  ++stats.aabb_tests;
  if (!geom::ray_intersects_aabb(ray, bvh.scene_bounds)) return;

  // Every Ray::point_query has this exact shape; its slab test needs no
  // multiplies (wide_point_ray_hits).
  const bool point_ray = ray.direction.x == 0.0f &&
                         ray.direction.y == 0.0f &&
                         ray.direction.z == 1.0f && ray.tmin == 0.0f;

  std::uint32_t stack[kWideStackCapacity];
  std::size_t top = 0;
  stack[top++] = 0;

  while (top > 0) {
    const WideBvhNode& node = bvh.nodes[stack[--top]];
    ++stats.nodes_visited;
    stats.aabb_tests += node.child_count;
    std::uint32_t pending =
        (point_ray ? detail::wide_point_ray_hits(node, ray)
                   : detail::wide_ray_hits(node, ray)) &
        node.lane_mask();

    // Visit hit lanes far-to-near along the node's sort axis so the
    // nearest internal child ends on top of the stack; leaves resolve
    // inline as they are encountered.  Lanes are stored ascending along
    // the axis, so far-to-near is descending bits for a +axis ray.
    const bool reversed = ray.direction[node.sort_axis] < 0.0f;
    while (pending != 0) {
      unsigned lane;
      if (reversed) {
        lane = static_cast<unsigned>(std::countr_zero(pending));
        pending &= pending - 1;
      } else {
        lane = 31u - static_cast<unsigned>(std::countl_zero(pending));
        pending &= ~(1u << lane);
      }
      if (node.lane_is_leaf(lane)) {
        const std::uint32_t first = node.child[lane];
        for (std::uint32_t i = first; i < first + node.count[lane]; ++i) {
          if (on_candidate(bvh.prim_index[i]) ==
              TraversalControl::kTerminate) {
            return;
          }
        }
      } else {
        // The wide walk is DRAM-latency-bound on large trees, and a
        // pushed entry is popped a few steps later: enough slack to hide
        // most of the miss.
        stack[top++] = node.child[lane];
        RTD_PREFETCH(&bvh.nodes[node.child[lane]]);
      }
    }
  }
}

/// Volume-overlap walk over a wide BVH; semantics identical to the binary
/// traverse_overlap() above.
template <typename Callback>
void traverse_overlap(const WideBvh& bvh, const geom::Aabb& query,
                      Callback&& on_candidate, TraversalStats& stats) {
  if (bvh.empty()) return;
  ++stats.rays;

  ++stats.aabb_tests;
  if (!query.overlaps(bvh.scene_bounds)) return;

  std::uint32_t stack[kWideStackCapacity];
  std::size_t top = 0;
  stack[top++] = 0;

  while (top > 0) {
    const WideBvhNode& node = bvh.nodes[stack[--top]];
    ++stats.nodes_visited;
    stats.aabb_tests += node.child_count;
    std::uint32_t pending =
        detail::wide_overlap_hits(node, query) & node.lane_mask();

    while (pending != 0) {
      const auto lane = static_cast<unsigned>(std::countr_zero(pending));
      pending &= pending - 1;
      if (node.lane_is_leaf(lane)) {
        const std::uint32_t first = node.child[lane];
        for (std::uint32_t i = first; i < first + node.count[lane]; ++i) {
          if (on_candidate(bvh.prim_index[i]) ==
              TraversalControl::kTerminate) {
            return;
          }
        }
      } else {
        stack[top++] = node.child[lane];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Layout dispatch — the one place that picks the walk for a structure that
// owns both layouts of the same tree.  A non-empty wide layout wins; an
// empty one (collapse skipped per rt::BuildOptions::width, or unavailable —
// an oversize leaf makes collapse_bvh() return empty) falls back to the
// binary walk.  Every consumer (SphereAccel, TriangleAccel, the BVH-backed
// indexes) routes through these so the selection rule lives in exactly one
// spot.
// ---------------------------------------------------------------------------

template <typename Callback>
void traverse(const Bvh& bvh, const WideBvh& wide, const geom::Ray& ray,
              Callback&& on_candidate, TraversalStats& stats) {
  if (!wide.empty()) {
    traverse(wide, ray, std::forward<Callback>(on_candidate), stats);
  } else {
    traverse(bvh, ray, std::forward<Callback>(on_candidate), stats);
  }
}

template <typename Callback>
void traverse_overlap(const Bvh& bvh, const WideBvh& wide,
                      const geom::Aabb& query, Callback&& on_candidate,
                      TraversalStats& stats) {
  if (!wide.empty()) {
    traverse_overlap(wide, query, std::forward<Callback>(on_candidate),
                     stats);
  } else {
    traverse_overlap(bvh, query, std::forward<Callback>(on_candidate),
                     stats);
  }
}

/// Brute-force reference: invoke the callback for every primitive whose AABB
/// the ray hits.  Used by tests to check traversal completeness (a BVH
/// traversal must surface a superset of the exact hits and exactly the set
/// of AABB hits reachable through contained bounds).
template <typename Callback>
void traverse_brute_force(std::span<const geom::Aabb> prim_bounds,
                          const geom::Ray& ray, Callback&& on_candidate) {
  for (std::uint32_t i = 0; i < prim_bounds.size(); ++i) {
    if (geom::ray_intersects_aabb(ray, prim_bounds[i])) {
      if (on_candidate(i) == TraversalControl::kTerminate) return;
    }
  }
}

}  // namespace rtd::rt
