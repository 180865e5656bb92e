// RT-FindNeighborhood (the paper's Algorithm 2) through BvhRtIndex, its one
// implementation: one point-query ray per query, the Intersection program's
// exact point-in-sphere test and the `q != s` self filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "common/rng.hpp"
#include "data/generators.hpp"
#include "index/bvh_rt_index.hpp"
#include "rt/parallel_launch.hpp"

namespace rtd::index {
namespace {

using geom::Vec3;

std::set<std::uint32_t> brute_neighbors(std::span<const Vec3> points,
                                        const Vec3& q, float eps,
                                        std::uint32_t self) {
  std::set<std::uint32_t> out;
  const float e2 = eps * eps;
  for (std::uint32_t i = 0; i < points.size(); ++i) {
    if (i != self && geom::distance_squared(q, points[i]) <= e2) {
      out.insert(i);
    }
  }
  return out;
}

/// One RT-FindNeighborhood count through the NeighborIndex contract.
std::uint32_t count_neighbors(const NeighborIndex& index, const Vec3& q,
                              float eps, std::uint32_t self,
                              rt::TraversalStats& stats) {
  return index.query_count(q, eps, self, stats);
}

TEST(RtFindNeighbors, RejectsNonPositiveRadius) {
  const std::vector<Vec3> points{{0, 0, 0}};
  for (const float eps : {0.0f, -1.0f, std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    EXPECT_THROW(BvhRtIndex(points, eps), std::invalid_argument) << eps;
  }
}

TEST(RtFindNeighbors, CountsMatchBruteForceOnRandom3D) {
  Rng rng(91);
  std::vector<Vec3> points;
  for (int i = 0; i < 4000; ++i) {
    points.push_back(Vec3{rng.uniformf(0, 10), rng.uniformf(0, 10),
                          rng.uniformf(0, 10)});
  }
  const float eps = 0.5f;
  const BvhRtIndex index(points, eps);

  rt::TraversalStats stats;
  for (std::uint32_t i = 0; i < points.size(); i += 13) {
    const auto expected = brute_neighbors(points, points[i], eps, i);
    EXPECT_EQ(count_neighbors(index, points[i], eps, i, stats),
              expected.size())
        << "point " << i;
  }
}

TEST(RtFindNeighbors, CollectMatchesBruteForceIds) {
  const auto dataset = data::taxi_gps(3000, 92);
  const float eps = 0.3f;
  const BvhRtIndex index(dataset.points, eps);

  rt::TraversalStats stats;
  std::vector<std::uint32_t> got;
  for (std::uint32_t i = 0; i < dataset.size(); i += 17) {
    got.clear();
    index.query_sphere(dataset.points[i], eps, i,
                       [&](std::uint32_t j) { got.push_back(j); }, stats);
    const std::set<std::uint32_t> got_set(got.begin(), got.end());
    EXPECT_EQ(got_set.size(), got.size()) << "duplicates for point " << i;
    EXPECT_EQ(got_set,
              brute_neighbors(dataset.points, dataset.points[i], eps, i));
  }
}

TEST(RtFindNeighbors, ExternalQueryPointNeedsNoSelfFilter) {
  const std::vector<Vec3> points{{0, 0, 0}, {1, 0, 0}, {5, 5, 0}};
  const BvhRtIndex index(points, 1.5f);
  rt::TraversalStats stats;
  // Query from a location that is not a dataset point.
  const Vec3 q{0.5f, 0.0f, 0.0f};
  EXPECT_EQ(count_neighbors(index, q, 1.5f, kNoSelf, stats), 2u);
}

TEST(RtFindNeighbors, SelfFilterExcludesExactlyTheQueryPoint) {
  // Duplicate coordinates: the self filter is by id, not by position.
  const std::vector<Vec3> points{{2, 2, 0}, {2, 2, 0}, {2, 2, 0}};
  const BvhRtIndex index(points, 0.5f);
  rt::TraversalStats stats;
  EXPECT_EQ(count_neighbors(index, points[0], 0.5f, 0, stats), 2u);
  EXPECT_EQ(count_neighbors(index, points[0], 0.5f, kNoSelf, stats), 3u);
}

TEST(RtFindNeighbors, BoundaryDistanceIsInclusive) {
  const std::vector<Vec3> points{{0, 0, 0}, {1, 0, 0}};
  const BvhRtIndex index(points, 1.0f);
  rt::TraversalStats stats;
  EXPECT_EQ(count_neighbors(index, points[0], 1.0f, 0, stats), 1u);
}

TEST(RtFindNeighbors, ForNeighborsVisitsEachOnce) {
  const auto dataset = data::road_network(2000, 93);
  const float eps = 0.5f;
  const BvhRtIndex index(dataset.points, eps);
  rt::TraversalStats stats;
  for (std::uint32_t i = 0; i < 50; ++i) {
    std::vector<std::uint32_t> seen;
    index.query_sphere(dataset.points[i], eps, i,
                       [&](std::uint32_t j) { seen.push_back(j); }, stats);
    std::set<std::uint32_t> unique(seen.begin(), seen.end());
    EXPECT_EQ(unique.size(), seen.size());
  }
}

TEST(RtFindNeighbors, IntersectionProgramCalledOnlyOnCandidates) {
  // The Intersection-call count must be >= the true neighbor count and
  // bounded by the primitive count (sanity of hardware counters).
  const auto dataset = data::taxi_gps(2000, 94);
  const BvhRtIndex index(dataset.points, 0.3f);
  rt::TraversalStats stats;
  const auto count =
      count_neighbors(index, dataset.points[0], 0.3f, 0, stats);
  EXPECT_GE(stats.isect_calls, count);
  EXPECT_LE(stats.isect_calls, dataset.size());
  EXPECT_EQ(stats.rays, 1u);
}

TEST(RtFindNeighbors, LaunchRunsAllRays) {
  const auto dataset = data::taxi_gps(5000, 95);
  const float eps = 0.3f;
  const BvhRtIndex index(dataset.points, eps);

  std::vector<std::uint32_t> counts(dataset.size());
  const rt::LaunchStats launch = rt::parallel_launch(
      dataset.size(), 0, [&](rt::TraversalStats& st, std::size_t i) {
        counts[i] = count_neighbors(index, dataset.points[i], eps,
                                    static_cast<std::uint32_t>(i), st);
      });
  EXPECT_EQ(launch.work.rays, dataset.size());
  EXPECT_GT(launch.nodes_per_ray(), 0.0);
  EXPECT_GT(launch.isect_per_ray(), 0.0);
  EXPECT_GT(launch.seconds, 0.0);

  // Spot-check against brute force.
  Rng rng(96);
  for (int t = 0; t < 50; ++t) {
    const auto i = static_cast<std::uint32_t>(rng.below(dataset.size()));
    EXPECT_EQ(counts[i], brute_neighbors(dataset.points, dataset.points[i],
                                         eps, i)
                             .size());
  }
}

TEST(RtFindNeighbors, TwoDimensionalDataEmbedsCorrectly) {
  // 2-D points at z=0 with the paper's z-direction ray convention.
  const auto dataset = data::road_network(3000, 97);
  const float eps = 0.4f;
  const BvhRtIndex index(dataset.points, eps);
  rt::TraversalStats stats;
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(count_neighbors(index, dataset.points[i], eps, i, stats),
              brute_neighbors(dataset.points, dataset.points[i], eps, i)
                  .size());
  }
}

}  // namespace
}  // namespace rtd::index
