#include "core/rt_knn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "data/generators.hpp"
#include "index/neighbor_index.hpp"
#include "telemetry/telemetry.hpp"

namespace rtd::core {
namespace {

using geom::Vec3;
using index::kNoSelf;

/// Brute-force kNN reference (indices of the k nearest other points).
std::vector<std::uint32_t> brute_knn(std::span<const Vec3> points,
                                     std::uint32_t i, std::uint32_t k) {
  std::vector<std::pair<float, std::uint32_t>> d;
  d.reserve(points.size());
  for (std::uint32_t j = 0; j < points.size(); ++j) {
    if (j != i) {
      d.emplace_back(geom::distance_squared(points[i], points[j]), j);
    }
  }
  const std::size_t kk = std::min<std::size_t>(k, d.size());
  std::partial_sort(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(kk),
                    d.end());
  std::vector<std::uint32_t> out(kk);
  for (std::size_t h = 0; h < kk; ++h) out[h] = d[h].second;
  return out;
}

/// Compare by distance (tie-tolerant: equal k-th distances may legally pick
/// different indices).
void expect_knn_matches(std::span<const Vec3> points, const RtKnnResult& r,
                        std::uint32_t i) {
  const auto expected = brute_knn(points, i, r.k);
  const auto got_idx = r.neighbors_of(i);
  const auto got_dist = r.distances_of(i);
  ASSERT_GE(got_idx.size(), expected.size());
  for (std::size_t h = 0; h < expected.size(); ++h) {
    const float expected_d =
        geom::distance(points[i], points[expected[h]]);
    ASSERT_NE(got_idx[h], kNoSelf) << "point " << i << " rank " << h;
    EXPECT_NEAR(got_dist[h], expected_d, 1e-4f)
        << "point " << i << " rank " << h;
    EXPECT_NE(got_idx[h], i) << "self returned as neighbor";
  }
  // Distances ascending.
  for (std::size_t h = 1; h < expected.size(); ++h) {
    EXPECT_LE(got_dist[h - 1], got_dist[h] + 1e-6f);
  }
}

TEST(RtKnn, RejectsBadArguments) {
  const std::vector<Vec3> pts{{0, 0, 0}};
  EXPECT_THROW(rt_knn(pts, 0), std::invalid_argument);
  RtKnnOptions bad;
  bad.growth = 1.0f;
  EXPECT_THROW(rt_knn(pts, 3, bad), std::invalid_argument);
}

TEST(RtKnn, EmptyInput) {
  const std::vector<Vec3> pts;
  const auto r = rt_knn(pts, 3);
  EXPECT_TRUE(r.indices.empty());
}

TEST(RtKnn, TinyDatasetPadsWithSentinel) {
  const std::vector<Vec3> pts{{0, 0, 0}, {1, 0, 0}};
  const auto r = rt_knn(pts, 5);
  EXPECT_EQ(r.neighbors_of(0)[0], 1u);
  EXPECT_NEAR(r.distances_of(0)[0], 1.0f, 1e-6f);
  for (std::size_t h = 1; h < 5; ++h) {
    EXPECT_EQ(r.neighbors_of(0)[h], kNoSelf);
    EXPECT_TRUE(std::isinf(r.distances_of(0)[h]));
  }
}

TEST(RtKnn, MatchesBruteForceOnRandom2D) {
  const auto dataset = data::taxi_gps(2000, 201);
  const auto r = rt_knn(dataset.points, 8);
  for (std::uint32_t i = 0; i < dataset.size(); i += 23) {
    expect_knn_matches(dataset.points, r, i);
  }
}

TEST(RtKnn, MatchesBruteForceOnRandom3D) {
  const auto dataset = data::ionosphere3d(2000, 202);
  const auto r = rt_knn(dataset.points, 5);
  for (std::uint32_t i = 0; i < dataset.size(); i += 29) {
    expect_knn_matches(dataset.points, r, i);
  }
}

TEST(RtKnn, VariousK) {
  const auto dataset = data::gaussian_blobs(1000, 3, 1.0f, 20.0f, 2, 203);
  for (const std::uint32_t k : {1u, 2u, 10u, 50u}) {
    const auto r = rt_knn(dataset.points, k);
    EXPECT_EQ(r.k, k);
    for (std::uint32_t i = 0; i < dataset.size(); i += 97) {
      expect_knn_matches(dataset.points, r, i);
    }
  }
}

TEST(RtKnn, SkewedDensityConverges) {
  // One dense blob and far-flung sparse noise: sparse points need several
  // radius-doubling rounds.
  auto dataset = data::single_blob(1500, 0.5f, 204);
  Rng rng(205);
  for (int i = 0; i < 50; ++i) {
    dataset.points.push_back(
        geom::Vec3::xy(rng.uniformf(-500, 500), rng.uniformf(-500, 500)));
  }
  const auto r = rt_knn(dataset.points, 6);
  EXPECT_GT(r.rounds, 1);
  for (std::uint32_t i = 0; i < dataset.size(); i += 41) {
    expect_knn_matches(dataset.points, r, i);
  }
}

TEST(RtKnn, DuplicatePointsAreZeroDistanceNeighbors) {
  std::vector<Vec3> pts(6, Vec3::xy(3, 3));
  pts.push_back(Vec3::xy(100, 100));
  const auto r = rt_knn(pts, 3);
  for (std::size_t h = 0; h < 3; ++h) {
    EXPECT_EQ(r.distances_of(0)[h], 0.0f);
    EXPECT_NE(r.neighbors_of(0)[h], 0u);
  }
}

TEST(RtKnn, ReportsRoundsAndWork) {
  const auto dataset = data::taxi_gps(3000, 206);
  const auto r = rt_knn(dataset.points, 10);
  EXPECT_GE(r.rounds, 1);
  EXPECT_GT(r.launches.work.rays, 0u);
  EXPECT_GT(r.accel_build_seconds, 0.0);
}

TEST(RtKnn, RefitRoundsMatchBruteForceAtOneAndFourThreads) {
  // A radius far below the spacing forces several rounds; every round after
  // the first refits the one sphere scene instead of building another.
  const auto dataset = data::taxi_gps(2000, 208);
  for (const int threads : {1, 4}) {
    telemetry::disarm_all();
    telemetry::reset();
    telemetry::arm(telemetry::kMetrics);
    RtKnnOptions opts;
    opts.initial_radius = 1e-4f;
    opts.threads = threads;
    const auto r = rt_knn(dataset.points, 6, opts);
    const std::uint64_t refits =
        telemetry::snapshot().counter(telemetry::Counter::kIndexRefits);
    telemetry::disarm_all();
    telemetry::reset();
    EXPECT_GE(r.rounds, 3) << threads << " threads";
    EXPECT_EQ(refits, static_cast<std::uint64_t>(r.rounds - 1))
        << threads << " threads";
    for (std::uint32_t i = 0; i < dataset.size(); i += 19) {
      expect_knn_matches(dataset.points, r, i);
    }
  }
}

TEST(RtKnn, HugeGrowthStopsAtTheDatasetReach) {
  // Ten points 10 apart: nothing within the first radius, and the second
  // (2 * FLT_MAX) is capped at twice the bounding diagonal instead of
  // overflowing to +inf.
  std::vector<Vec3> pts;
  for (int i = 0; i < 10; ++i) pts.push_back(Vec3::xy(10.0f * static_cast<float>(i), 0.0f));
  RtKnnOptions opts;
  opts.initial_radius = 2.0f;
  opts.growth = std::numeric_limits<float>::max();
  const auto r = rt_knn(pts, 3, opts);
  EXPECT_EQ(r.rounds, 2);
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    expect_knn_matches(pts, r, i);
  }
}

TEST(RtKnn, ExplicitInitialRadiusHonored) {
  const auto dataset = data::taxi_gps(1000, 207);
  RtKnnOptions opts;
  opts.initial_radius = 1000.0f;  // covers everything: one round
  const auto r = rt_knn(dataset.points, 4, opts);
  EXPECT_EQ(r.rounds, 1);
  for (std::uint32_t i = 0; i < dataset.size(); i += 61) {
    expect_knn_matches(dataset.points, r, i);
  }
}

}  // namespace
}  // namespace rtd::core
