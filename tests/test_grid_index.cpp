// The kGrid backend (index::GridIndex) queried directly.  Queries pass
// kNoSelf, so a query centred on a point counts that point.
#include "index/grid_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "data/generators.hpp"

namespace rtd::index {
namespace {

using geom::Vec3;

std::set<std::uint32_t> brute_neighbors(std::span<const Vec3> points,
                                        const Vec3& q, float radius) {
  std::set<std::uint32_t> out;
  const float r2 = radius * radius;
  for (std::uint32_t i = 0; i < points.size(); ++i) {
    if (geom::distance_squared(q, points[i]) <= r2) out.insert(i);
  }
  return out;
}

std::vector<std::uint32_t> neighbors(const GridIndex& index, const Vec3& q,
                                     float radius) {
  std::vector<std::uint32_t> out;
  rt::TraversalStats stats;
  index.query_sphere(q, radius, kNoSelf,
                     [&](std::uint32_t j) { out.push_back(j); }, stats);
  return out;
}

std::uint32_t count_neighbors(const GridIndex& index, const Vec3& q,
                              float radius, std::uint32_t self = kNoSelf) {
  rt::TraversalStats stats;
  return index.query_count(q, radius, self, stats, kNoCap);
}

TEST(GridIndex, RejectsBadCellSize) {
  const std::vector<Vec3> pts{{0, 0, 0}};
  EXPECT_THROW(GridIndex(pts, 0.0f), std::invalid_argument);
  EXPECT_THROW(GridIndex(pts, -1.0f), std::invalid_argument);
}

TEST(GridIndex, EmptyInput) {
  const std::vector<Vec3> pts;
  GridIndex index(pts, 1.0f);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(count_neighbors(index, Vec3{0, 0, 0}, 1.0f), 0u);
}

TEST(GridIndex, SelfIsItsOwnNeighbor) {
  const std::vector<Vec3> pts{{1, 1, 0}, {5, 5, 0}};
  GridIndex index(pts, 0.5f);
  const auto n = neighbors(index, pts[0], 0.5f);
  ASSERT_EQ(n.size(), 1u);
  EXPECT_EQ(n[0], 0u);
  // Passing the point's own id excludes it by id.
  EXPECT_EQ(count_neighbors(index, pts[0], 0.5f, 0), 0u);
}

TEST(GridIndex, MatchesBruteForceOnRandomData) {
  Rng rng(81);
  std::vector<Vec3> pts;
  for (int i = 0; i < 3000; ++i) {
    pts.push_back(Vec3{rng.uniformf(0, 10), rng.uniformf(0, 10),
                       rng.uniformf(0, 10)});
  }
  const float radius = 0.4f;
  GridIndex index(pts, radius);
  for (int trial = 0; trial < 300; ++trial) {
    const Vec3 q{rng.uniformf(-1, 11), rng.uniformf(-1, 11),
                 rng.uniformf(-1, 11)};
    const auto got = neighbors(index, q, radius);
    const std::set<std::uint32_t> got_set(got.begin(), got.end());
    EXPECT_EQ(got_set.size(), got.size()) << "duplicate ids";
    EXPECT_EQ(got_set, brute_neighbors(pts, q, radius)) << "trial " << trial;
  }
}

TEST(GridIndex, MatchesBruteForceOn2D) {
  const auto dataset = data::taxi_gps(5000, 3);
  const float radius = 0.25f;
  GridIndex index(dataset.points, radius);
  Rng rng(82);
  for (int trial = 0; trial < 200; ++trial) {
    const auto pick = rng.below(dataset.points.size());
    const Vec3 q = dataset.points[pick];
    const auto got = neighbors(index, q, radius);
    const std::set<std::uint32_t> got_set(got.begin(), got.end());
    EXPECT_EQ(got_set, brute_neighbors(dataset.points, q, radius));
    EXPECT_EQ(count_neighbors(index, q, radius), got.size());
  }
}

TEST(GridIndex, SmallerQueryRadiusThanCellWorks) {
  Rng rng(83);
  std::vector<Vec3> pts;
  for (int i = 0; i < 2000; ++i) {
    pts.push_back(Vec3{rng.uniformf(0, 5), rng.uniformf(0, 5), 0.0f});
  }
  GridIndex index(pts, 1.0f);  // cell larger than query radius
  for (int trial = 0; trial < 100; ++trial) {
    const Vec3 q{rng.uniformf(0, 5), rng.uniformf(0, 5), 0.0f};
    const auto got = neighbors(index, q, 0.3f);
    const std::set<std::uint32_t> got_set(got.begin(), got.end());
    EXPECT_EQ(got_set, brute_neighbors(pts, q, 0.3f));
  }
}

TEST(GridIndex, DuplicatePointsAllReported) {
  std::vector<Vec3> pts(100, Vec3{2, 3, 0});
  pts.push_back(Vec3{10, 10, 0});
  GridIndex index(pts, 1.0f);
  EXPECT_EQ(count_neighbors(index, Vec3{2, 3, 0}, 1.0f), 100u);
}

TEST(GridIndex, NegativeCoordinatesWork) {
  std::vector<Vec3> pts{{-5.5f, -3.2f, 0}, {-5.6f, -3.1f, 0}, {4, 4, 0}};
  GridIndex index(pts, 0.5f);
  EXPECT_EQ(count_neighbors(index, pts[0], 0.5f), 2u);
  EXPECT_EQ(count_neighbors(index, pts[2], 0.5f), 1u);
}

TEST(GridIndex, BoundaryDistanceIsInclusive) {
  std::vector<Vec3> pts{{0, 0, 0}, {1, 0, 0}};
  GridIndex index(pts, 1.0f);
  // Exactly eps apart: included (<=).
  EXPECT_EQ(count_neighbors(index, pts[0], 1.0f), 2u);
  EXPECT_EQ(count_neighbors(index, pts[0], 0.999f), 1u);
}

TEST(GridIndex, BoxWiderThanTheCellKeyVisitsEachPointOnce) {
  // Cells 2^21 apart on an axis share a packed key, so a box walk wider
  // than that would meet the origin cell twice; with this many points the
  // walk would otherwise be under the linear-scan threshold.
  constexpr std::uint32_t kPeriod = 1u << 21;
  std::vector<Vec3> pts(kPeriod, Vec3{0, 0, 0});
  pts.back() = Vec3{static_cast<float>(kPeriod + 2), 0, 0};
  GridIndex index(pts, 1.0f);
  const geom::Aabb box{{-1, -1, -1},
                       {static_cast<float>(kPeriod + 3), 1, 1}};
  std::vector<std::uint8_t> seen(pts.size(), 0);
  std::size_t visits = 0;
  rt::TraversalStats stats;
  index.query_box(
      box,
      [&](std::uint32_t j) {
        ++visits;
        seen[j] = 1;
      },
      stats);
  EXPECT_EQ(visits, pts.size());
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
            static_cast<std::ptrdiff_t>(pts.size()));
}

}  // namespace
}  // namespace rtd::index
