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
//
// Three walk families live here: the binary volume-overlap walk (only
// index::PointTree below its wide threshold walks a binary tree), the
// wide (8-ary SoA) walks, and the 4-ray point-query packet walk over the
// wide layout (traverse_points) that the full query passes use — up to four
// Morton-adjacent rays share each node fetch.  Its counters are per-ray
// sums equal to the single-ray walk's; its lane compare and exact test
// use SSE2, the x86-64 baseline (scalar bodies elsewhere).  Isolated
// queries stay on the single-ray walk (see dbscan/engine.hpp for which
// passes trace packets and why).
#pragma once

#include <bit>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

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
// TraversalStats semantics as the binary overlap walk above: one `ray` per
// traversal, one `nodes_visited` per node popped, one `aabb_tests` per
// child slab tested (the root's bounds count once, exactly as the binary
// walk tests the root before descending).  Candidate sets are a
// CONSERVATIVE SUPERSET of the leaf-exact hits (leaf lanes absorb whole
// bottom subtrees, rt::kWideLeafSize) — callers apply the exact
// primitive filter they owe any BVH's inflated leaf boxes, so exact
// results equal brute force (test-enforced).  A wide node resolves eight
// children per pop: nodes_visited drops ~4x against the binary tree,
// which is the measured point of the layout.
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

/// Walk a wide BVH with `ray`; invoke `on_candidate(prim_id)` for every
/// primitive in every leaf lane whose AABB the ray intersects.
/// `on_candidate` must be invocable as `TraversalControl(std::uint32_t)`;
/// counters accumulate into `stats`.  Internal children are pushed so the
/// nearest one along each node's sort axis is popped first (the collapse
/// pre-sorts lanes ascending; the walk flips direction with the ray) — a
/// near-first SUBTREE order that helps kTerminate-capable callers exit
/// early.  Leaf lanes resolve inline in far-to-near order within their
/// node, so no global near-first ordering of candidates is guaranteed;
/// callers needing distance order (a future closest-hit query) must sort.
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
/// traverse_overlap() above (the same candidates up to the leaf lanes'
/// coarser grain).
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
// 4-ray point-query packets over the wide layout — the coherent-packet
// technique of Wald et al. (EG 2001) and Embree's rtcIntersect4.  Up to
// four Ray::point_query rays descend together: each stack entry carries
// the mask of rays that hit that node, so one node fetch serves every ray
// that takes the same path while each ray still visits exactly the nodes
// and candidates its single-ray walk visits.  The counters stay per-ray
// sums — `rays`, `nodes_visited` and `aabb_tests` grow by the packet's
// active ray count at each step — so a packet of m rays reports exactly
// what m single walks report.  Only full query passes in Morton order use
// it (dbscan/engine.hpp): isolated queries carry no coherence for a packet
// to share, so they keep the single-ray walk.
//
// The lane compare and the exact distance test are 4-wide SSE2 movemask
// helpers (detail::point_ray_hits4, detail::packet_within).  SSE2 is the
// x86-64 baseline, so no -march flag is needed; elsewhere those two
// helpers fall back to scalar bodies with identical results.
// ---------------------------------------------------------------------------

/// Rays per packet: one SSE register of floats.
inline constexpr std::uint32_t kPacketWidth = 4;

/// Up to kPacketWidth point-query rays (geom::Ray::point_query) as SoA
/// origins.  Rays [0, size) are live; unused slots hold zeros, and every
/// verdict for them is masked off.
struct PointPacket {
  alignas(16) float x[kPacketWidth] = {};
  alignas(16) float y[kPacketWidth] = {};
  alignas(16) float z[kPacketWidth] = {};
  std::uint32_t size = 0;

  /// Append one ray's origin; at most kPacketWidth per packet.
  void push(const geom::Vec3& origin) {
    x[size] = origin.x;
    y[size] = origin.y;
    z[size] = origin.z;
    ++size;
  }

  [[nodiscard]] geom::Vec3 origin(std::uint32_t k) const {
    return {x[k], y[k], z[k]};
  }
};

namespace detail {

/// One point ray against lanes [first, first + 4) of `node`: bit i set iff
/// lane first + i passes the wide_point_ray_hits test (same comparisons,
/// same operands, so the verdicts are bit-identical).  `first` is 0 or 4.
inline std::uint32_t point_ray_hits4(const WideBvhNode& node, unsigned first,
                                     float ox, float oy, float oz,
                                     float tmax) {
#if defined(__SSE2__)
  const __m128 x = _mm_set1_ps(ox);
  const __m128 y = _mm_set1_ps(oy);
  const __m128 z = _mm_set1_ps(oz);
  __m128 m = _mm_and_ps(_mm_cmpge_ps(x, _mm_load_ps(&node.lo[0][first])),
                        _mm_cmple_ps(x, _mm_load_ps(&node.hi[0][first])));
  m = _mm_and_ps(m, _mm_cmpge_ps(y, _mm_load_ps(&node.lo[1][first])));
  m = _mm_and_ps(m, _mm_cmple_ps(y, _mm_load_ps(&node.hi[1][first])));
  m = _mm_and_ps(
      m, _mm_cmple_ps(_mm_sub_ps(_mm_load_ps(&node.lo[2][first]), z),
                      _mm_set1_ps(tmax)));
  m = _mm_and_ps(m, _mm_cmpge_ps(_mm_load_ps(&node.hi[2][first]), z));
  return static_cast<std::uint32_t>(_mm_movemask_ps(m));
#else
  std::uint32_t hits = 0;
  for (unsigned i = 0; i < 4; ++i) {
    const unsigned l = first + i;
    const bool hit = ox >= node.lo[0][l] && ox <= node.hi[0][l] &&
                     oy >= node.lo[1][l] && oy <= node.hi[1][l] &&
                     node.lo[2][l] - oz <= tmax && node.hi[2][l] >= oz;
    hits |= static_cast<std::uint32_t>(hit) << i;
  }
  return hits;
#endif
}

/// The exact test for a whole packet: bit k set iff
/// geom::distance_squared(packet.origin(k), c) <= r2, evaluated with the
/// scalar expression's operations in its order (bit-identical verdicts).
/// d2[k] receives the squared distance the verdict compared, bit-identical
/// to the scalar one.  Bits and lanes of unused slots are garbage; callers
/// mask them.
inline std::uint32_t packet_within(const PointPacket& packet,
                                   const geom::Vec3& c, float r2,
                                   float (&d2)[kPacketWidth]) {
#if defined(__SSE2__)
  const __m128 dx = _mm_sub_ps(_mm_load_ps(packet.x), _mm_set1_ps(c.x));
  const __m128 dy = _mm_sub_ps(_mm_load_ps(packet.y), _mm_set1_ps(c.y));
  const __m128 dz = _mm_sub_ps(_mm_load_ps(packet.z), _mm_set1_ps(c.z));
  const __m128 d = _mm_add_ps(
      _mm_add_ps(_mm_mul_ps(dx, dx), _mm_mul_ps(dy, dy)), _mm_mul_ps(dz, dz));
  _mm_storeu_ps(d2, d);
  return static_cast<std::uint32_t>(
      _mm_movemask_ps(_mm_cmple_ps(d, _mm_set1_ps(r2))));
#else
  std::uint32_t inside = 0;
  for (std::uint32_t k = 0; k < kPacketWidth; ++k) {
    d2[k] = geom::distance_squared(packet.origin(k), c);
    inside |= static_cast<std::uint32_t>(d2[k] <= r2) << k;
  }
  return inside;
#endif
}

}  // namespace detail

/// Walk a wide BVH with a packet of point-query rays.  For every leaf
/// candidate reached, `on_candidate(prim_id, rays)` receives the mask of
/// packet rays whose single-ray walk (traverse() above) would surface that
/// candidate at that leaf lane — the same (ray, candidate) multiset, in a
/// different order.  Point queries never terminate early, so the callback
/// returns nothing.  Counters are per-ray sums (see the section comment).
template <typename Callback>
void traverse_points(const WideBvh& bvh, const PointPacket& packet,
                     Callback&& on_candidate, TraversalStats& stats) {
  if (bvh.empty() || packet.size == 0) return;
  const float tmax = geom::Ray::point_query({}).tmax;

  // Root: exactly the single-ray walk's scene-bounds test, per ray.
  stats.rays += packet.size;
  stats.aabb_tests += packet.size;
  std::uint32_t live = 0;
  for (std::uint32_t k = 0; k < packet.size; ++k) {
    if (geom::ray_intersects_aabb(geom::Ray::point_query(packet.origin(k)),
                                  bvh.scene_bounds)) {
      live |= 1u << k;
    }
  }
  if (live == 0) return;

  // A pop pushes at most one entry per lane, as in the single-ray walk, so
  // the same capacity bounds the stack.
  std::uint32_t stack[kWideStackCapacity];
  std::uint8_t stack_rays[kWideStackCapacity];
  std::size_t top = 0;
  stack[top] = 0;
  stack_rays[top++] = static_cast<std::uint8_t>(live);

  while (top > 0) {
    --top;
    const WideBvhNode& node = bvh.nodes[stack[top]];
    const std::uint32_t rays = stack_rays[top];
    const auto active = static_cast<std::uint32_t>(std::popcount(rays));
    stats.nodes_visited += active;
    stats.aabb_tests += static_cast<std::uint64_t>(node.child_count) * active;

    // Per ray, the 8-lane hit mask; transposed into per-lane ray masks.
    std::uint32_t lane_rays[kWideBvhArity] = {};
    std::uint32_t pending = 0;
    for (std::uint32_t r = rays; r != 0; r &= r - 1) {
      const auto k = static_cast<unsigned>(std::countr_zero(r));
      const std::uint32_t hits =
          (detail::point_ray_hits4(node, 0, packet.x[k], packet.y[k],
                                   packet.z[k], tmax) |
           detail::point_ray_hits4(node, 4, packet.x[k], packet.y[k],
                                   packet.z[k], tmax)
               << 4) &
          node.lane_mask();
      pending |= hits;
      for (std::uint32_t h = hits; h != 0; h &= h - 1) {
        lane_rays[std::countr_zero(h)] |= 1u << k;
      }
    }

    // Far-to-near along the sort axis, like the single-ray walk (a point
    // ray points +z, so that is descending lanes).
    while (pending != 0) {
      const unsigned lane =
          31u - static_cast<unsigned>(std::countl_zero(pending));
      pending &= ~(1u << lane);
      const std::uint32_t lane_mask = lane_rays[lane];
      if (node.lane_is_leaf(lane)) {
        const std::uint32_t first = node.child[lane];
        for (std::uint32_t i = first; i < first + node.count[lane]; ++i) {
          on_candidate(bvh.prim_index[i], lane_mask);
        }
      } else {
        stack[top] = node.child[lane];
        stack_rays[top++] = static_cast<std::uint8_t>(lane_mask);
        RTD_PREFETCH(&bvh.nodes[node.child[lane]]);
      }
    }
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
