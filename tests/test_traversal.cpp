#include "rt/traversal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "rt/bvh.hpp"
#include "rt/wide_bvh.hpp"

namespace rtd::rt {
namespace {

using geom::Aabb;
using geom::Ray;
using geom::Vec3;

/// A built tree and its wide layout.  Rays walk the wide layout, the only
/// ray walk; volume-overlap queries walk the binary tree (index::PointTree
/// below its wide threshold).
struct Scene {
  std::vector<Vec3> centers;
  std::vector<Aabb> bounds;
  Bvh bvh;
  WideBvh wide;
};

/// The build thread counts every traversal test runs at: four workers,
/// and the one-thread build the delta-tail trees use.
enum class BuildThreads { kFour, kOne };

int threads_of(BuildThreads b) { return b == BuildThreads::kFour ? 4 : 1; }

Scene make_scene(std::size_t n, float radius, std::uint64_t seed,
                 BuildThreads mode) {
  Rng rng(seed);
  Scene s;
  for (std::size_t i = 0; i < n; ++i) {
    s.centers.push_back(Vec3{rng.uniformf(0, 20), rng.uniformf(0, 20),
                             rng.uniformf(0, 20)});
    s.bounds.push_back(Aabb::of_sphere(s.centers.back(), radius));
  }
  s.bvh = build_bvh(s.bounds, threads_of(mode));
  s.wide = collapse_bvh(s.bvh);
  return s;
}

std::set<std::uint32_t> candidates_via_bvh(const Scene& s, const Ray& ray,
                                           TraversalStats* stats = nullptr) {
  std::set<std::uint32_t> out;
  TraversalStats local;
  traverse(
      s.wide, ray,
      [&](std::uint32_t prim) {
        out.insert(prim);
        return TraversalControl::kContinue;
      },
      stats != nullptr ? *stats : local);
  return out;
}

std::set<std::uint32_t> candidates_brute(const Scene& s, const Ray& ray) {
  std::set<std::uint32_t> out;
  traverse_brute_force(s.bounds, ray, [&](std::uint32_t prim) {
    out.insert(prim);
    return TraversalControl::kContinue;
  });
  return out;
}

/// A leaf lane holds up to kWideLeafSize primitives; reaching the lane
/// delivers all of them as candidates, so the candidate set is a SUPERSET
/// of the exact per-primitive AABB hits (the Intersection program
/// re-checks exactness — Alg. 2 line 6).  Filtering candidates by the primitive AABB must recover
/// the brute-force hit set exactly, proving no hit is ever missed.
void expect_complete_candidates(const Scene& s, const Ray& ray,
                                int trial) {
  const auto via_bvh = candidates_via_bvh(s, ray);
  const auto brute = candidates_brute(s, ray);
  for (const auto prim : brute) {
    EXPECT_TRUE(via_bvh.count(prim))
        << "trial " << trial << ": BVH missed primitive " << prim;
  }
  std::set<std::uint32_t> filtered;
  for (const auto prim : via_bvh) {
    if (geom::ray_intersects_aabb(ray, s.bounds[prim])) {
      filtered.insert(prim);
    }
  }
  EXPECT_EQ(filtered, brute) << "trial " << trial;
}

class TraversalTest : public ::testing::TestWithParam<BuildThreads> {};

TEST_P(TraversalTest, PointQueryCandidatesCoverBruteForce) {
  const Scene s = make_scene(3000, 0.7f, 17, GetParam());
  Rng rng(18);
  for (int trial = 0; trial < 300; ++trial) {
    const Ray ray = Ray::point_query(Vec3{
        rng.uniformf(-1, 21), rng.uniformf(-1, 21), rng.uniformf(-1, 21)});
    expect_complete_candidates(s, ray, trial);
  }
}

TEST_P(TraversalTest, PointQueryExactSphereHitsMatchBruteForce) {
  // End-to-end check of the paper's query: candidates + exact sphere filter
  // must equal the brute-force exact neighbor set.
  const float radius = 0.7f;
  const Scene s = make_scene(3000, radius, 18, GetParam());
  Rng rng(19);
  TraversalStats stats;
  for (int trial = 0; trial < 300; ++trial) {
    const Vec3 q{rng.uniformf(-1, 21), rng.uniformf(-1, 21),
                 rng.uniformf(-1, 21)};
    std::set<std::uint32_t> via_bvh;
    traverse(
        s.wide, Ray::point_query(q),
        [&](std::uint32_t prim) {
          if (geom::distance_squared(q, s.centers[prim]) <=
              radius * radius) {
            via_bvh.insert(prim);
          }
          return TraversalControl::kContinue;
        },
        stats);
    std::set<std::uint32_t> brute;
    for (std::uint32_t i = 0; i < s.centers.size(); ++i) {
      if (geom::distance_squared(q, s.centers[i]) <= radius * radius) {
        brute.insert(i);
      }
    }
    EXPECT_EQ(via_bvh, brute) << "trial " << trial;
  }
}

TEST_P(TraversalTest, FiniteRayCandidatesCoverBruteForce) {
  const Scene s = make_scene(2000, 0.5f, 19, GetParam());
  Rng rng(20);
  for (int trial = 0; trial < 300; ++trial) {
    const Vec3 origin{rng.uniformf(-5, 25), rng.uniformf(-5, 25),
                      rng.uniformf(-5, 25)};
    const Vec3 dir = normalized(Vec3{rng.uniformf(-1, 1),
                                     rng.uniformf(-1, 1),
                                     rng.uniformf(-1, 1)});
    const Ray ray{origin, dir, 0.0f, rng.uniformf(1.0f, 50.0f)};
    expect_complete_candidates(s, ray, trial);
  }
}

TEST_P(TraversalTest, QueriesFromDatasetPointsSeeTheirOwnSphere) {
  const Scene s = make_scene(1000, 0.4f, 21, GetParam());
  TraversalStats stats;
  for (std::uint32_t i = 0; i < s.centers.size(); ++i) {
    bool saw_self = false;
    traverse(
        s.wide, Ray::point_query(s.centers[i]),
        [&](std::uint32_t prim) {
          if (prim == i) saw_self = true;
          return TraversalControl::kContinue;
        },
        stats);
    EXPECT_TRUE(saw_self) << "point " << i;
  }
  EXPECT_EQ(stats.rays, s.centers.size());
}

TEST_P(TraversalTest, EarlyTerminationStopsTraversal) {
  const Scene s = make_scene(5000, 2.0f, 23, GetParam());
  const Ray ray = Ray::point_query(s.centers[0]);

  TraversalStats full_stats;
  std::size_t full_count = 0;
  traverse(
      s.wide, ray,
      [&](std::uint32_t) {
        ++full_count;
        return TraversalControl::kContinue;
      },
      full_stats);
  ASSERT_GT(full_count, 3u);

  TraversalStats early_stats;
  std::size_t early_count = 0;
  traverse(
      s.wide, ray,
      [&](std::uint32_t) {
        ++early_count;
        return early_count >= 3 ? TraversalControl::kTerminate
                                : TraversalControl::kContinue;
      },
      early_stats);
  EXPECT_EQ(early_count, 3u);
  EXPECT_LT(early_stats.nodes_visited, full_stats.nodes_visited);
}

TEST_P(TraversalTest, StatsCountWork) {
  const Scene s = make_scene(2000, 0.5f, 29, GetParam());
  TraversalStats stats;
  candidates_via_bvh(s, Ray::point_query(s.centers[0]), &stats);
  EXPECT_EQ(stats.rays, 1u);
  EXPECT_GT(stats.nodes_visited, 0u);
  EXPECT_GT(stats.aabb_tests, 0u);
  // Every node visit tests at least one child lane, after the root test.
  EXPECT_GE(stats.aabb_tests, stats.nodes_visited + 1);
}

TEST_P(TraversalTest, MissedSceneVisitsOnlyRoot) {
  const Scene s = make_scene(1000, 0.5f, 31, GetParam());
  TraversalStats stats;
  const auto hits =
      candidates_via_bvh(s, Ray::point_query(Vec3{500, 500, 500}), &stats);
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(stats.nodes_visited, 0u);  // root AABB test fails up front
  EXPECT_EQ(stats.aabb_tests, 1u);
}

TEST_P(TraversalTest, OverlapQueryCoversBruteForce) {
  const Scene s = make_scene(3000, 0.0001f, 37, GetParam());
  Rng rng(38);
  for (int trial = 0; trial < 200; ++trial) {
    const Vec3 q{rng.uniformf(0, 20), rng.uniformf(0, 20),
                 rng.uniformf(0, 20)};
    const Aabb query = Aabb::of_sphere(q, rng.uniformf(0.1f, 3.0f));

    std::set<std::uint32_t> via_bvh;
    TraversalStats stats;
    traverse_overlap(
        s.bvh, query,
        [&](std::uint32_t prim) {
          via_bvh.insert(prim);
          return TraversalControl::kContinue;
        },
        stats);

    std::set<std::uint32_t> brute;
    for (std::uint32_t i = 0; i < s.bounds.size(); ++i) {
      if (query.overlaps(s.bounds[i])) brute.insert(i);
    }
    // Same leaf-granularity contract as ray traversal: candidates cover the
    // exact overlap set; filtering by primitive bounds recovers it.
    for (const auto prim : brute) {
      EXPECT_TRUE(via_bvh.count(prim))
          << "trial " << trial << ": missed primitive " << prim;
    }
    std::set<std::uint32_t> filtered;
    for (const auto prim : via_bvh) {
      if (query.overlaps(s.bounds[prim])) filtered.insert(prim);
    }
    EXPECT_EQ(filtered, brute) << "trial " << trial;
  }
}

TEST_P(TraversalTest, EmptyBvhIsANoOp) {
  const WideBvh wide = collapse_bvh(build_bvh({}, threads_of(GetParam())));
  ASSERT_TRUE(wide.empty());
  TraversalStats stats;
  traverse(
      wide, Ray::point_query(Vec3{0, 0, 0}),
      [&](std::uint32_t) {
        ADD_FAILURE() << "callback on empty BVH";
        return TraversalControl::kContinue;
      },
      stats);
  EXPECT_EQ(stats.rays, 0u);
}

TEST_P(TraversalTest, StackDepthSufficientForAdversarialInput) {
  // A long skewed diagonal of overlapping spheres stresses traversal depth;
  // with median-split fallbacks the tree depth stays within the fixed stack.
  std::vector<Aabb> bounds;
  std::vector<Vec3> centers;
  for (int i = 0; i < 30000; ++i) {
    const float t = static_cast<float>(i) * 1e-4f;
    centers.push_back(Vec3{t, t, t});
    bounds.push_back(Aabb::of_sphere(centers.back(), 0.5f));
  }
  const Bvh bvh = build_bvh(bounds, threads_of(GetParam()));
  ASSERT_LE(bvh.stats.max_depth + 1, 64u) << "would overflow traversal stack";
  const WideBvh wide = collapse_bvh(bvh);
  ASSERT_LE(wide.max_depth, bvh.stats.max_depth);

  TraversalStats stats;
  std::size_t hits = 0;
  traverse(
      wide, Ray::point_query(centers[15000]),
      [&](std::uint32_t) {
        ++hits;
        return TraversalControl::kContinue;
      },
      stats);
  EXPECT_GT(hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Builders, TraversalTest,
                         ::testing::Values(BuildThreads::kFour,
                                           BuildThreads::kOne),
                         [](const auto& param_info) {
                           return param_info.param == BuildThreads::kFour
                                      ? "Lbvh"
                                      : "SerialLbvh";
                         });

}  // namespace
}  // namespace rtd::rt
