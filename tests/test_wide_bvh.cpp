// Wide (8-ary) BVH: collapse validation, wide-walk-vs-brute-force parity,
// binary-vs-wide overlap parity, 4-ray packet-vs-single-ray parity,
// leaf-collapse edge cases, refit, each structure's layout rule, and
// clustering parity through every BVH-backed variant and backend.
#include "rt/wide_bvh.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/api.hpp"
#include "core/rt_dbscan.hpp"
#include "data/generators.hpp"
#include "dbscan/engine.hpp"
#include "dbscan/fdbscan.hpp"
#include "dbscan_test_util.hpp"
#include "index/point_bvh_index.hpp"
#include "index/point_tree.hpp"
#include "rt/scene.hpp"
#include "rt/tessellate.hpp"
#include "rt/traversal.hpp"

namespace rtd::rt {
namespace {

using geom::Aabb;
using geom::Ray;
using geom::Vec3;

std::vector<Aabb> sphere_bounds(std::span<const Vec3> points, float radius) {
  std::vector<Aabb> bounds;
  bounds.reserve(points.size());
  for (const auto& p : points) {
    bounds.push_back(Aabb::of_sphere(p, radius));
  }
  return bounds;
}

std::vector<std::uint32_t> ray_candidates(const WideBvh& bvh, const Ray& ray,
                                          TraversalStats& stats) {
  std::vector<std::uint32_t> ids;
  traverse(
      bvh, ray,
      [&](std::uint32_t prim) {
        ids.push_back(prim);
        return TraversalControl::kContinue;
      },
      stats);
  std::sort(ids.begin(), ids.end());
  return ids;
}

template <typename BvhT>
std::vector<std::uint32_t> overlap_candidates(const BvhT& bvh,
                                              const Aabb& query,
                                              TraversalStats& stats) {
  std::vector<std::uint32_t> ids;
  traverse_overlap(
      bvh, query,
      [&](std::uint32_t prim) {
        ids.push_back(prim);
        return TraversalControl::kContinue;
      },
      stats);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The primitives whose own AABB the ray hits, by brute force — the set
/// any walk must surface (after its exact filter).
std::vector<std::uint32_t> brute_ray_hits(std::span<const Aabb> bounds,
                                          const Ray& ray) {
  std::vector<std::uint32_t> ids;
  traverse_brute_force(bounds, ray, [&](std::uint32_t prim) {
    ids.push_back(prim);
    return TraversalControl::kContinue;
  });
  return ids;
}

bool is_subset(const std::vector<std::uint32_t>& sub,
               const std::vector<std::uint32_t>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

std::vector<std::uint32_t> neighbor_set(const index::NeighborIndex& idx,
                                        const Vec3& center, float eps,
                                        std::uint32_t self) {
  std::vector<std::uint32_t> ids;
  TraversalStats stats;
  idx.query_sphere(center, eps, self,
                   [&](std::uint32_t j) { ids.push_back(j); }, stats);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The candidate contract of a walk: a SUPERSET of the `reference`
/// candidates (the brute-force hits, or a finer tree's candidates — wide
/// leaf lanes absorb whole subtrees), and after the exact per-primitive
/// test both reduce to the same set.
template <typename ExactTest>
void expect_candidate_contract(const std::vector<std::uint32_t>& walk_ids,
                               const std::vector<std::uint32_t>& reference,
                               ExactTest&& exact, const char* what) {
  EXPECT_TRUE(is_subset(reference, walk_ids)) << what;
  std::vector<std::uint32_t> walk_exact;
  for (const auto id : walk_ids) {
    if (exact(id)) walk_exact.push_back(id);
  }
  std::vector<std::uint32_t> reference_exact;
  for (const auto id : reference) {
    if (exact(id)) reference_exact.push_back(id);
  }
  EXPECT_EQ(walk_exact, reference_exact) << what;
}

TEST(WideBvh, CollapseValidatesOnSerialAndParallelBuilds) {
  const auto dataset = data::taxi_gps(4000, 7);
  const auto bounds = sphere_bounds(dataset.points, 0.3f);
  for (const int threads : {4, 1}) {
    const Bvh binary = build_bvh(bounds, threads);
    ASSERT_EQ(binary.validate(bounds), "");
    const WideBvh wide = collapse_bvh(binary);
    EXPECT_EQ(wide.validate(bounds), "") << threads;
    EXPECT_EQ(wide.prim_index, binary.prim_index) << threads;
    EXPECT_LT(wide.nodes.size(), binary.nodes.size()) << threads;
    EXPECT_LE(wide.max_depth, binary.stats.max_depth) << threads;
  }
}

TEST(WideBvh, RayTraversalParityWithBruteForce) {
  const auto dataset = data::taxi_gps(3000, 11);
  const auto bounds = sphere_bounds(dataset.points, 0.25f);
  const WideBvh wide = collapse_bvh(build_bvh(bounds));
  Rng rng(99);

  TraversalStats wide_stats;
  std::uint64_t queries = 0;
  for (std::size_t q = 0; q < dataset.points.size(); q += 37) {
    // The paper's degenerate point query...
    const Ray point_ray = Ray::point_query(dataset.points[q]);
    const auto ray_exact = [&](const Ray& r) {
      return [&bounds, r](std::uint32_t id) {
        return geom::ray_intersects_aabb(r, bounds[id]);
      };
    };
    expect_candidate_contract(ray_candidates(wide, point_ray, wide_stats),
                              brute_ray_hits(bounds, point_ray),
                              ray_exact(point_ray), "point ray");
    // ...and ordinary finite rays, including axis-parallel ones (zero
    // direction components exercise the slab test's parallel branch).
    const Ray finite{dataset.points[q],
                     {static_cast<float>(rng.uniform() - 0.5),
                      static_cast<float>(rng.uniform() - 0.5),
                      q % 3 == 0 ? 0.0f
                                 : static_cast<float>(rng.uniform() - 0.5)},
                     0.0f,
                     q % 5 == 0 ? 2.0f : 1e30f};
    expect_candidate_contract(ray_candidates(wide, finite, wide_stats),
                              brute_ray_hits(bounds, finite),
                              ray_exact(finite), "finite ray");
    queries += 2;
  }
  EXPECT_EQ(wide_stats.rays, queries);  // one launch per query
}

// ---------------------------------------------------------------------------
// 4-ray packets (rt::traverse_points): every packet of m point rays must
// surface the same (ray, candidate) multiset and the same summed counters
// as m single-ray wide walks.
// ---------------------------------------------------------------------------

using RayHits = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Cut `origins` into packets of 1, 2, 3, 4, 1, ... rays and compare each
/// packet walk with the single-ray walks of its rays.
void expect_packet_walk_parity(const WideBvh& wide,
                               std::span<const Vec3> origins,
                               const char* what) {
  std::size_t m = 1;
  for (std::size_t pos = 0; pos < origins.size(); pos += m, m = m % 4 + 1) {
    const auto rays = origins.subspan(pos, std::min(m, origins.size() - pos));
    RayHits single;
    TraversalStats single_stats;
    PointPacket packet;
    for (std::uint32_t k = 0; k < rays.size(); ++k) {
      packet.push(rays[k]);
      traverse(
          wide, Ray::point_query(rays[k]),
          [&](std::uint32_t prim) {
            single.emplace_back(k, prim);
            return TraversalControl::kContinue;
          },
          single_stats);
    }
    RayHits packed;
    TraversalStats packet_stats;
    traverse_points(
        wide, packet,
        [&](std::uint32_t prim, std::uint32_t mask) {
          EXPECT_NE(mask, 0u);
          EXPECT_EQ(mask >> packet.size, 0u);
          for (std::uint32_t k = 0; k < rays.size(); ++k) {
            if ((mask >> k) & 1u) packed.emplace_back(k, prim);
          }
        },
        packet_stats);
    std::sort(single.begin(), single.end());
    std::sort(packed.begin(), packed.end());
    EXPECT_EQ(packed, single) << what << " packet@" << pos;
    EXPECT_EQ(packet_stats.rays, single_stats.rays) << what << " @" << pos;
    EXPECT_EQ(packet_stats.nodes_visited, single_stats.nodes_visited)
        << what << " @" << pos;
    EXPECT_EQ(packet_stats.aabb_tests, single_stats.aabb_tests)
        << what << " @" << pos;
    EXPECT_EQ(packet_stats.isect_calls, single_stats.isect_calls)
        << what << " @" << pos;
  }
}

TEST(WidePacket, TraversePointsMatchesSingleRayWalks) {
  const auto dataset = data::taxi_gps(3000, 12);
  const auto bounds = sphere_bounds(dataset.points, 0.25f);
  const WideBvh wide = collapse_bvh(build_bvh(bounds));
  ASSERT_FALSE(wide.empty());

  // Coherent: a Morton-ordered run of dataset points.
  std::vector<Vec3> coherent;
  for (const std::uint32_t i :
       dbscan::query_launch_order(dataset.points, true, 1)) {
    coherent.push_back(dataset.points[i]);
  }
  expect_packet_walk_parity(wide, coherent, "morton");

  // Far apart: random dataset points and random origins, some far outside
  // the scene bounds (their rays die at the root test) and some on it.
  Rng rng(13);
  std::vector<Vec3> scattered;
  for (int r = 0; r < 400; ++r) {
    const auto i = static_cast<std::size_t>(
        rng.uniform() * static_cast<double>(dataset.points.size() - 1));
    scattered.push_back(dataset.points[i]);
    scattered.push_back({rng.uniformf(-80.0f, 130.0f),
                         rng.uniformf(-80.0f, 130.0f),
                         rng.uniformf(-2.0f, 2.0f)});
  }
  scattered.push_back(wide.scene_bounds.lo);
  scattered.push_back(wide.scene_bounds.hi);
  expect_packet_walk_parity(wide, scattered, "scattered");

  // After a radius refit the lanes' bounds moved; parity must hold.
  Bvh refit = build_bvh(bounds);
  WideBvh refit_wide = collapse_bvh(refit);
  refit.refit(sphere_bounds(dataset.points, 0.6f));
  refit_wide.refit_from(refit);
  expect_packet_walk_parity(refit_wide, coherent, "refit");

  // An empty tree answers nothing and counts nothing, like traverse().
  TraversalStats stats;
  PointPacket packet;
  packet.push(dataset.points[0]);
  traverse_points(
      WideBvh{}, packet, [&](std::uint32_t, std::uint32_t) { FAIL(); },
      stats);
  EXPECT_EQ(stats.rays, 0u);
}

TEST(WidePacket, SphereAccelPacketMatchesTraceAndExactTest) {
  const auto dataset = data::gaussian_blobs(5000, 4, 0.4f, 10.0f, 3, 14);
  // Includes exact-boundary pairs: (0,0,0)-(3,4,0) sit exactly 5 apart.
  std::vector<Vec3> centers = dataset.points;
  centers.push_back({0.0f, 0.0f, 0.0f});
  centers.push_back({3.0f, 4.0f, 0.0f});
  for (const float radius : {0.3f, 5.0f}) {
    const SphereAccel accel(centers, radius);
    ASSERT_FALSE(accel.wide_bvh().empty());
    const std::size_t n = centers.size();
    for (std::size_t pos = 0; pos + 4 <= n; pos += 97) {
      // Packet ending with the boundary pair on the last step.
      const std::size_t first = pos + 4 + 97 > n ? n - 4 : pos;
      PointPacket packet;
      RayHits single;
      TraversalStats single_stats;
      for (std::uint32_t k = 0; k < 4; ++k) {
        const Ray ray = Ray::point_query(centers[first + k]);
        packet.push(ray.origin);
        accel.trace(
            ray,
            [&](std::uint32_t prim) {
              if (accel.origin_inside(ray, prim)) single.emplace_back(k, prim);
            },
            single_stats);
      }
      RayHits packed;
      TraversalStats packet_stats;
      accel.trace_packet(
          packet,
          [&](std::uint32_t prim, std::uint32_t mask) {
            float d2[4];
            const std::uint32_t in =
                accel.origins_inside(packet, prim, d2) & mask;
            for (std::uint32_t k = 0; k < 4; ++k) {
              if ((in >> k) & 1u) {
                packed.emplace_back(k, prim);
                // The lane's d² is the scalar one, bit for bit.
                EXPECT_EQ(d2[k], geom::distance_squared(packet.origin(k),
                                                        accel.center(prim)));
              }
            }
          },
          packet_stats);
      std::sort(single.begin(), single.end());
      std::sort(packed.begin(), packed.end());
      EXPECT_EQ(packed, single) << radius << " @" << first;
      EXPECT_EQ(packet_stats.isect_calls, single_stats.isect_calls);
      EXPECT_EQ(packet_stats.nodes_visited, single_stats.nodes_visited);
      if (first == n - 4 && radius == 5.0f) {
        // Ray 3 starts at (3,4,0); sphere n-2 is centered on the origin.
        EXPECT_TRUE(std::find(packed.begin(), packed.end(),
                              std::make_pair(3u, static_cast<std::uint32_t>(
                                                     n - 2))) != packed.end());
      }
    }
  }
}

TEST(WideBvh, OverlapTraversalParityWithBinary) {
  const auto dataset = data::uniform_cube(2500, 15.0f, 3, 13);
  const auto bounds = sphere_bounds(dataset.points, 0.0f);
  const Bvh binary = build_bvh(bounds);
  const WideBvh wide = collapse_bvh(binary);

  TraversalStats binary_stats;
  TraversalStats wide_stats;
  const auto check = [&](const Aabb& query) {
    expect_candidate_contract(
        overlap_candidates(wide, query, wide_stats),
        overlap_candidates(binary, query, binary_stats),
        [&](std::uint32_t id) { return query.overlaps(bounds[id]); },
        "overlap");
  };
  for (std::size_t q = 0; q < dataset.points.size(); q += 29) {
    check(Aabb::of_sphere(dataset.points[q], 0.8f));
  }
  // An all-covering box surfaces every primitive on both layouts.
  const Aabb everything{{-100, -100, -100}, {100, 100, 100}};
  EXPECT_EQ(overlap_candidates(wide, everything, wide_stats),
            overlap_candidates(binary, everything, binary_stats));
  const Aabb nothing{{500, 500, 500}, {501, 501, 501}};
  EXPECT_TRUE(overlap_candidates(wide, nothing, wide_stats).empty());
}

TEST(WideBvh, LeafCollapseEdgeCases) {
  // Empty scene.
  const Bvh empty_binary = build_bvh({});
  const WideBvh empty_wide = collapse_bvh(empty_binary);
  EXPECT_TRUE(empty_wide.empty());
  TraversalStats stats;
  EXPECT_TRUE(
      ray_candidates(empty_wide, Ray::point_query({0, 0, 0}), stats).empty());

  // n < arity, including the single-leaf tree (n <= kLeafSize collapses the
  // whole dataset into one leaf lane) and duplicate coordinates.
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u}) {
    std::vector<Vec3> pts;
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back(Vec3::xy(static_cast<float>(i % 3), 0.0f));  // dups
    }
    const auto bounds = sphere_bounds(pts, 0.5f);
    const Bvh binary = build_bvh(bounds);
    const WideBvh wide = collapse_bvh(binary);
    ASSERT_EQ(wide.validate(bounds), "") << "n=" << n;
    for (std::size_t q = 0; q < n; ++q) {
      const Ray ray = Ray::point_query(pts[q]);
      TraversalStats s1;
      expect_candidate_contract(
          ray_candidates(wide, ray, s1), brute_ray_hits(bounds, ray),
          [&](std::uint32_t id) {
            return geom::ray_intersects_aabb(ray, bounds[id]);
          },
          "edge case");
    }
  }
}

TEST(WideBvh, RefitTracksRadiusSweep) {
  const auto dataset = data::taxi_gps(2000, 17);
  SphereAccel accel(dataset.points, 0.2f);
  ASSERT_FALSE(accel.wide_bvh().empty());

  for (const float radius : {0.4f, 0.1f, 0.25f}) {
    accel.set_radius(radius, 0);
    const auto bounds = sphere_bounds(dataset.points, radius);
    EXPECT_EQ(accel.wide_bvh().validate(bounds), "") << radius;
    // The refit wide layout surfaces every primitive whose refit box the
    // ray hits, and exact-filtered results match the brute oracle.
    TraversalStats s1;
    const float r2 = radius * radius;
    for (std::size_t q = 0; q < dataset.points.size(); q += 97) {
      const Ray ray = Ray::point_query(dataset.points[q]);
      EXPECT_TRUE(is_subset(brute_ray_hits(bounds, ray),
                            ray_candidates(accel.wide_bvh(), ray, s1)))
          << radius << " q=" << q;
      std::vector<std::uint32_t> exact;
      for (const auto id : ray_candidates(accel.wide_bvh(), ray, s1)) {
        if (geom::distance_squared(dataset.points[q], dataset.points[id]) <=
            r2) {
          exact.push_back(id);
        }
      }
      std::vector<std::uint32_t> oracle;
      for (std::uint32_t j = 0; j < dataset.points.size(); ++j) {
        if (geom::distance_squared(dataset.points[q], dataset.points[j]) <=
            r2) {
          oracle.push_back(j);
        }
      }
      EXPECT_EQ(exact, oracle) << radius << " q=" << q;
    }
  }
}

/// Every point of `points` within `eps` of `center`, self excluded.
std::vector<std::uint32_t> brute_neighbors(std::span<const Vec3> points,
                                           const Vec3& center, float eps,
                                           std::uint32_t self) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t j = 0; j < points.size(); ++j) {
    if (j != self && geom::distance_squared(center, points[j]) <= eps * eps) {
      ids.push_back(j);
    }
  }
  return ids;
}

// Each structure's layout: the ray scenes always walk the wide layout,
// index::PointTree from PointTree::kWideMinPoints points up, and an empty
// structure has no tree of either kind.
TEST(WideBvh, WidthResolution) {
  // A one-sphere scene is already wide, and answers like brute force.
  const std::vector<Vec3> one{Vec3{1.0f, 2.0f, 3.0f}};
  const SphereAccel single(one, 0.5f);
  EXPECT_FALSE(single.wide_bvh().empty());
  EXPECT_EQ(single.wide_bvh().validate(sphere_bounds(one, 0.5f)), "");
  for (const Vec3 probe : {Vec3{1.0f, 2.0f, 3.4f}, Vec3{1.0f, 2.0f, 3.6f}}) {
    const Ray ray = Ray::point_query(probe);
    std::vector<std::uint32_t> got;
    TraversalStats stats;
    single.trace(
        ray,
        [&](std::uint32_t prim) {
          if (single.origin_inside(ray, prim)) got.push_back(prim);
        },
        stats);
    EXPECT_EQ(got, brute_neighbors(one, probe, 0.5f, index::kNoSelf));
  }

  // The point tree switches layouts at its threshold.
  const auto small = data::taxi_gps(index::PointTree::kWideMinPoints - 1, 19);
  const index::PointBvhIndex small_idx(small.points, 0.3f);
  EXPECT_TRUE(small_idx.wide_bvh().empty());
  const auto large = data::taxi_gps(index::PointTree::kWideMinPoints, 19);
  const index::PointBvhIndex large_idx(large.points, 0.3f);
  EXPECT_FALSE(large_idx.wide_bvh().empty());

  // Empty inputs build nothing on every owner and answer nothing.
  const std::vector<Vec3> none;
  const index::PointBvhIndex empty_idx(none, 0.3f);
  EXPECT_TRUE(empty_idx.wide_bvh().empty());
  EXPECT_EQ(neighbor_set(empty_idx, Vec3{0, 0, 0}, 0.3f, index::kNoSelf),
            std::vector<std::uint32_t>{});
  const SphereAccel empty_spheres(none, 0.3f);
  EXPECT_TRUE(empty_spheres.wide_bvh().empty());
  const TriangleAccel empty_tri({}, {});
  EXPECT_TRUE(empty_tri.wide_bvh().empty());
}

// ---------------------------------------------------------------------------
// Index-layer and clustering parity: every BVH-backed backend must answer
// the brute-force neighbor SETS and the reference Clustering, across the
// standard degenerate datasets.  Below PointTree::kWideMinPoints kPointBvh
// walks its binary tree while kBvhRt walks its wide layout, so these cases
// cover both layouts.
// ---------------------------------------------------------------------------

struct WidthCase {
  const char* name;
  std::vector<Vec3> points;
  float eps;
};

std::vector<WidthCase> width_cases() {
  std::vector<WidthCase> cases;
  cases.push_back({"uniform", data::uniform_cube(1500, 20.0f, 3, 101).points,
                   0.9f});
  cases.push_back(
      {"blobs", data::gaussian_blobs(1500, 3, 0.5f, 10.0f, 3, 102).points,
       0.4f});
  std::vector<Vec3> colinear;
  for (int i = 0; i < 150; ++i) {
    colinear.push_back(Vec3::xy(static_cast<float>(i) * 0.25f, 0.0f));
  }
  for (int d = 0; d < 30; ++d) {
    colinear.push_back(Vec3::xy(7.5f, 0.0f));
  }
  cases.push_back({"colinear_dups", std::move(colinear), 0.6f});
  std::vector<Vec3> dups(64, Vec3{1.0f, 2.0f, 3.0f});
  cases.push_back({"all_duplicates", std::move(dups), 0.5f});
  return cases;
}

constexpr index::IndexKind kTreeKinds[] = {index::IndexKind::kPointBvh,
                                           index::IndexKind::kBvhRt};

TEST(WideBvhIndexParity, NeighborSetsMatchBruteForceOnEveryBvhBackend) {
  for (const auto& c : width_cases()) {
    const auto brute =
        index::make_index(c.points, c.eps, index::IndexKind::kBruteForce);
    for (const index::IndexKind kind : kTreeKinds) {
      const auto tree = index::make_index(c.points, c.eps, kind);
      for (std::uint32_t q = 0; q < c.points.size(); q += 17) {
        EXPECT_EQ(neighbor_set(*tree, c.points[q], c.eps, q),
                  neighbor_set(*brute, c.points[q], c.eps, q))
            << c.name << " " << index::to_string(kind) << " q=" << q;
      }
      for (std::uint32_t q = 0; q < c.points.size(); q += 41) {
        TraversalStats s1;
        TraversalStats s2;
        EXPECT_EQ(tree->query_count(c.points[q], c.eps, q, s1),
                  brute->query_count(c.points[q], c.eps, q, s2))
            << c.name << " " << index::to_string(kind);
      }
    }
  }
}

std::vector<std::uint32_t> box_set(const index::NeighborIndex& idx,
                                   const Aabb& box) {
  std::vector<std::uint32_t> ids;
  TraversalStats stats;
  idx.query_box(box, [&](std::uint32_t j) { ids.push_back(j); }, stats);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(WideBvhIndexParity, QueryBoxMatchesBruteForceOnEveryBvhBackend) {
  const auto c = width_cases().front();
  const auto brute =
      index::make_index(c.points, c.eps, index::IndexKind::kBruteForce);
  for (const index::IndexKind kind : kTreeKinds) {
    const auto tree = index::make_index(c.points, c.eps, kind);
    for (std::uint32_t q = 0; q < c.points.size(); q += 97) {
      const Aabb box = Aabb::of_sphere(c.points[q], 1.3f * c.eps);
      EXPECT_EQ(box_set(*tree, box), box_set(*brute, box))
          << index::to_string(kind) << " q=" << q;
    }
  }
}

// kPointBvh on both sides of PointTree::kWideMinPoints: the binary tree
// at 4,095 points and the wide layout at 4,096 answer queries and run()
// like brute force.
TEST(PointTreeLayout, BothSidesOfThresholdMatchBruteForce) {
  const float eps = 0.3f;
  for (const std::size_t n : {index::PointTree::kWideMinPoints - 1,
                              index::PointTree::kWideMinPoints}) {
    const auto dataset = data::taxi_gps(n, 23);
    const index::PointBvhIndex tree(dataset.points, eps);
    EXPECT_EQ(tree.wide_bvh().empty(), n < index::PointTree::kWideMinPoints);
    const auto brute = index::make_index(dataset.points, eps,
                                         index::IndexKind::kBruteForce);
    for (std::uint32_t q = 0; q < n; q += 13) {
      EXPECT_EQ(neighbor_set(tree, dataset.points[q], eps, q),
                neighbor_set(*brute, dataset.points[q], eps, q))
          << "n=" << n << " q=" << q;
      const Aabb box = Aabb::of_sphere(dataset.points[q], 1.3f * eps);
      EXPECT_EQ(box_set(tree, box), box_set(*brute, box))
          << "n=" << n << " q=" << q;
    }
    Clusterer session(dataset.points,
                      Options().with_backend(index::IndexKind::kPointBvh));
    const ClusterResult& run = session.run(eps, 8);
    EXPECT_EQ(run.stats.backend, index::IndexKind::kPointBvh);
    testutil::expect_matches_reference(dataset.points, {eps, 8},
                                       run.to_clustering(), "pointbvh run");
  }
}

TEST(WideBvhClusteringParity, EngineIdenticalAcrossWidths) {
  for (const auto& c : width_cases()) {
    const dbscan::Params p{c.eps, 5};
    // kPointBvh walks the binary tree here, kBvhRt the wide layout.
    const auto binary =
        index::make_index(c.points, p.eps, index::IndexKind::kPointBvh);
    const auto wide =
        index::make_index(c.points, p.eps, index::IndexKind::kBvhRt);
    const auto run_b = dbscan::cluster_with_index(*binary, p);
    const auto run_w = dbscan::cluster_with_index(*wide, p);
    // Identical, not merely equivalent: the neighbor sets match per query
    // after the exact filter, so the whole two-phase run replays
    // bit-for-bit.
    EXPECT_EQ(run_w.clustering.labels, run_b.clustering.labels) << c.name;
    EXPECT_EQ(run_w.clustering.is_core, run_b.clustering.is_core) << c.name;
    EXPECT_EQ(run_w.neighbor_counts, run_b.neighbor_counts) << c.name;
    testutil::expect_matches_reference(c.points, p, run_w.clustering,
                                       c.name);
  }
}

TEST(WideBvhClusteringParity, VariantsMatchReferenceOnWideTrees) {
  // At the point tree's threshold every tree here walks its wide layout.
  const auto dataset = data::taxi_gps(index::PointTree::kWideMinPoints, 61);
  const dbscan::Params params{0.3f, 8};

  // FDBSCAN over the point BVH (with and without early exit).
  for (const bool early_exit : {false, true}) {
    dbscan::FdbscanOptions options;
    options.early_exit = early_exit;
    const auto fd = dbscan::fdbscan(dataset.points, params, options);
    testutil::expect_matches_reference(dataset.points, params, fd.clustering,
                                       "fdbscan");
  }

  // RT-DBSCAN over the sphere scene.
  const auto rt = core::rt_dbscan(dataset.points, params);
  testutil::expect_matches_reference(dataset.points, params, rt.clustering,
                                     "rt_dbscan");
}

// ---------------------------------------------------------------------------
// Triangle mode (§VI-C) on the wide kernel: the tessellated scene must
// surface the brute-force owner sets and the reference clustering, at every
// size, and the wide layout must refit through a TriangleAccel ε sweep.
// ---------------------------------------------------------------------------

/// Owner set a +z §VI-C query ray hits (exact AnyHit dedup), sorted.
std::vector<std::uint32_t> traced_owner_set(const TriangleAccel& accel,
                                            const Vec3& origin, float tmax,
                                            TraversalStats& stats) {
  std::vector<std::uint32_t> owners;
  const geom::Ray ray{origin, {0.0f, 0.0f, 1.0f}, 0.0f, tmax};
  accel.trace(
      ray, [&](std::uint32_t owner, float /*t*/) { owners.push_back(owner); },
      stats);
  std::sort(owners.begin(), owners.end());
  owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
  return owners;
}

/// The same owner set by brute force over the tessellation's triangles.
std::vector<std::uint32_t> brute_owner_set(const TessellatedSpheres& mesh,
                                           const Vec3& origin, float tmax) {
  std::vector<std::uint32_t> owners;
  const geom::Ray ray{origin, {0.0f, 0.0f, 1.0f}, 0.0f, tmax};
  for (std::size_t t = 0; t < mesh.triangles.size(); ++t) {
    if (geom::ray_intersects_triangle(ray, mesh.triangles[t])) {
      owners.push_back(mesh.owners[t]);
    }
  }
  std::sort(owners.begin(), owners.end());
  owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
  return owners;
}

TEST(TriangleWideParity, SmallSceneCollapsesToWide) {
  // Under 4096 triangles (64 spheres x 20 faces) the scene still walks the
  // wide layout, and answers like brute force.
  const auto small = data::taxi_gps(64, 53);
  const float eps = 0.3f;
  const TriangleAccel tiny(small.points, eps, /*subdivisions=*/0);
  ASSERT_LT(tiny.triangle_count(), 4096u);
  ASSERT_FALSE(tiny.wide_bvh().empty());
  const TessellatedSpheres mesh = tessellate_spheres(small.points, eps, 0);
  const float tmax = 1.01f * (eps + tiny.vertex_scale());
  TraversalStats stats;
  for (std::uint32_t q = 0; q < small.points.size(); ++q) {
    EXPECT_EQ(traced_owner_set(tiny, small.points[q], tmax, stats),
              brute_owner_set(mesh, small.points[q], tmax))
        << "q=" << q;
  }

  const auto large = data::taxi_gps(256, 53);
  const TriangleAccel big(large.points, eps, 0);
  ASSERT_GE(big.triangle_count(), 4096u);
  EXPECT_FALSE(big.wide_bvh().empty());
}

TEST(TriangleWideParity, OwnerSetsMatchBruteForce) {
  struct TriCase {
    const char* name;
    std::vector<Vec3> points;
    float eps;
  };
  std::vector<TriCase> cases;
  cases.push_back({"uniform", data::uniform_cube(400, 12.0f, 3, 61).points,
                   0.9f});
  cases.push_back(
      {"blobs", data::gaussian_blobs(400, 3, 0.5f, 8.0f, 3, 62).points,
       0.5f});
  std::vector<Vec3> dups(48, Vec3{1.0f, 2.0f, 3.0f});
  cases.push_back({"all_duplicates", std::move(dups), 0.5f});

  for (const auto& c : cases) {
    const TriangleAccel accel(c.points, c.eps, 1);
    ASSERT_FALSE(accel.wide_bvh().empty()) << c.name;
    const TessellatedSpheres mesh = tessellate_spheres(c.points, c.eps, 1);
    const float tmax = 1.01f * (c.eps + accel.vertex_scale());
    TraversalStats stats;
    for (std::size_t q = 0; q < c.points.size(); q += 7) {
      EXPECT_EQ(traced_owner_set(accel, c.points[q], tmax, stats),
                brute_owner_set(mesh, c.points[q], tmax))
          << c.name << " q=" << q;
    }
  }
}

TEST(TriangleWideParity, ClusteringsIdenticalAcrossWidths) {
  const auto dataset = data::gaussian_blobs(700, 4, 0.4f, 9.0f, 3, 67);
  const dbscan::Params params{0.5f, 6};
  core::RtDbscanOptions opts;
  opts.triangle_subdivisions = 1;
  // The triangle scene walks its wide layout; kPointBvh at 700 points walks
  // its binary tree.
  const auto tri = core::rt_dbscan(
      dataset.points,
      {params.eps, params.min_pts, index::IndexKind::kTriangles}, opts);
  const auto point = dbscan::cluster_with_index(
      *index::make_index(dataset.points, params.eps,
                         index::IndexKind::kPointBvh),
      params);
  testutil::expect_matches_reference(dataset.points, params, tri.clustering,
                                     "triangles");
  EXPECT_EQ(tri.clustering.labels, point.clustering.labels);
  EXPECT_EQ(tri.clustering.is_core, point.clustering.is_core);
  EXPECT_EQ(tri.neighbor_counts, point.neighbor_counts);
}

TEST(TriangleWideParity, RefitAfterEpsSweepKeepsParity) {
  const auto dataset = data::taxi_gps(500, 71);
  TriangleAccel accel(dataset.points, 0.2f, 1);
  for (const float eps : {0.45f, 0.15f, 0.3f}) {
    accel.set_radius(eps, 0);
    EXPECT_FLOAT_EQ(accel.radius(), eps);
    // Refit accel vs from-scratch accel: identical owner sets per query.
    const TriangleAccel fresh(dataset.points, eps, 1);
    EXPECT_NEAR(accel.vertex_scale(), fresh.vertex_scale(),
                1e-4f * fresh.vertex_scale());
    const float tmax = 1.01f * (eps + fresh.vertex_scale());
    TraversalStats s1;
    for (std::size_t q = 0; q < dataset.points.size(); q += 23) {
      // The refit mesh is bit-near but not bit-identical to a fresh
      // tessellation (raw shell crossings in the eps..circumradius band
      // may differ by ulps); what the clustering consumes is the owner
      // set after the exact distance filter — that must match the brute
      // oracle exactly, circumscription guarantees no true neighbor is
      // missed.
      const auto owners = traced_owner_set(accel, dataset.points[q], tmax,
                                           s1);
      std::vector<std::uint32_t> exact;
      for (const auto id : owners) {
        if (geom::distance_squared(dataset.points[q], dataset.points[id]) <=
            eps * eps) {
          exact.push_back(id);
        }
      }
      std::vector<std::uint32_t> oracle;
      for (std::uint32_t j = 0; j < dataset.points.size(); ++j) {
        if (geom::distance_squared(dataset.points[q], dataset.points[j]) <=
            eps * eps) {
          oracle.push_back(j);
        }
      }
      EXPECT_EQ(exact, oracle) << "eps=" << eps << " q=" << q;
    }
  }
}

TEST(TriangleWideParity, GenericAccelRejectsSetRadius) {
  std::vector<geom::Triangle> tris{{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}}};
  std::vector<std::uint32_t> owners{0};
  TriangleAccel accel(std::move(tris), std::move(owners));
  EXPECT_FALSE(accel.rescalable());
  EXPECT_THROW(accel.set_radius(0.5f, 1), std::logic_error);
}

}  // namespace
}  // namespace rtd::rt
