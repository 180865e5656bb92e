// Cross-backend parity suite for the NeighborIndex layer.
//
// The contract (docs/ARCHITECTURE.md) promises that every backend returns
// the IDENTICAL neighbor set — ε-inclusive boundaries, self excluded by id,
// duplicates reported — so the DBSCAN engine can swap backends freely.
// These tests enforce set parity against a hand-rolled brute-force oracle
// on generated and degenerate datasets, and clustering equivalence of every
// DBSCAN variant across every backend.
#include "index/neighbor_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/api.hpp"
#include "data/generators.hpp"
#include "dbscan/engine.hpp"
#include "dbscan/fdbscan.hpp"
#include "dbscan/fdbscan_densebox.hpp"
#include "dbscan/gdbscan.hpp"
#include "dbscan/sequential.hpp"
#include "dbscan_test_util.hpp"
#include "index/bvh_rt_index.hpp"
#include "index/grid_index.hpp"
#include "index/point_tree.hpp"

namespace rtd::index {
namespace {

using dbscan::Params;
using geom::Vec3;

std::vector<std::unique_ptr<NeighborIndex>> all_backends(
    std::span<const Vec3> points, float eps) {
  std::vector<std::unique_ptr<NeighborIndex>> out;
  for (const IndexKind kind : kAllIndexKinds) {
    out.push_back(make_index(points, eps, kind));
  }
  return out;
}

/// The oracle: ε-inclusive, self excluded by id.
std::vector<std::uint32_t> brute_neighbors(std::span<const Vec3> points,
                                           const Vec3& center, float eps,
                                           std::uint32_t self) {
  std::vector<std::uint32_t> ids;
  const float eps2 = eps * eps;
  for (std::uint32_t j = 0; j < points.size(); ++j) {
    if (j != self && geom::distance_squared(center, points[j]) <= eps2) {
      ids.push_back(j);
    }
  }
  return ids;
}

std::vector<std::uint32_t> sorted_neighbors(const NeighborIndex& index,
                                            const Vec3& center, float eps,
                                            std::uint32_t self) {
  std::vector<std::uint32_t> ids;
  rt::TraversalStats stats;
  index.query_sphere(center, eps, self,
                     [&](std::uint32_t j) { ids.push_back(j); }, stats);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Degenerate dataset: colinear points on the x-axis, several duplicated.
std::vector<Vec3> colinear_with_duplicates() {
  std::vector<Vec3> pts;
  for (int i = 0; i < 120; ++i) {
    pts.push_back(Vec3::xy(static_cast<float>(i) * 0.25f, 0.0f));
  }
  for (int d = 0; d < 30; ++d) {
    pts.push_back(Vec3::xy(7.5f, 0.0f));  // 30 extra copies of one point
  }
  return pts;
}

struct ParityCase {
  const char* name;
  std::vector<Vec3> points;
  float eps;
};

std::vector<ParityCase> parity_cases() {
  std::vector<ParityCase> cases;
  cases.push_back({"uniform", data::uniform_cube(1500, 20.0f, 3, 101).points,
                   0.9f});
  cases.push_back(
      {"blobs", data::gaussian_blobs(1500, 3, 0.5f, 10.0f, 3, 102).points,
       0.4f});
  cases.push_back({"colinear_dups", colinear_with_duplicates(), 0.6f});
  cases.push_back({"tiny", testutil::two_squares_and_outlier(), 1.5f});
  return cases;
}

TEST(NeighborIndexParity, AllBackendsReturnIdenticalNeighborSets) {
  for (const auto& c : parity_cases()) {
    const auto backends = all_backends(c.points, c.eps);
    for (std::uint32_t q = 0; q < c.points.size();
         q += std::max<std::uint32_t>(
             1, static_cast<std::uint32_t>(c.points.size() / 97))) {
      const auto expected =
          brute_neighbors(c.points, c.points[q], c.eps, q);
      for (const auto& index : backends) {
        EXPECT_EQ(sorted_neighbors(*index, c.points[q], c.eps, q), expected)
            << c.name << ": backend " << index->name() << ", query " << q;
      }
    }
  }
}

TEST(NeighborIndexParity, OffDatasetCentersWithNoSelf) {
  const auto c = parity_cases()[0];
  const auto backends = all_backends(c.points, c.eps);
  const Vec3 centers[] = {{0.0f, 0.0f, 0.0f},
                          {10.0f, 10.0f, 10.0f},
                          {-5.0f, 3.0f, 19.0f},
                          {100.0f, 100.0f, 100.0f}};  // far outside bounds
  for (const auto& center : centers) {
    const auto expected = brute_neighbors(c.points, center, c.eps, kNoSelf);
    for (const auto& index : backends) {
      EXPECT_EQ(sorted_neighbors(*index, center, c.eps, kNoSelf), expected)
          << index->name();
    }
  }
}

TEST(NeighborIndexParity, EpsilonBoundaryIsInclusive) {
  // Exactly representable distances: a point at distance exactly eps IS a
  // neighbor (|N_eps| uses <=), on every backend.
  const std::vector<Vec3> pts{{0, 0, 0}, {1, 0, 0}, {0, 5, 0}, {3, 9, 0}};
  for (const auto& index : all_backends(pts, 1.0f)) {
    EXPECT_EQ(sorted_neighbors(*index, pts[0], 1.0f, 0),
              (std::vector<std::uint32_t>{1}))
        << index->name();
  }
  // 3-4-5 triangle: distance exactly 5.
  const std::vector<Vec3> tri{{0, 0, 0}, {3, 4, 0}, {50, 0, 0}};
  for (const auto& index : all_backends(tri, 5.0f)) {
    EXPECT_EQ(sorted_neighbors(*index, tri[0], 5.0f, 0),
              (std::vector<std::uint32_t>{1}))
        << index->name();
  }
}

TEST(NeighborIndexParity, DuplicatePointsExcludedByIdOnly) {
  // Five coincident points: a self-query sees the other four (distance 0),
  // an off-dataset query sees all five.
  const std::vector<Vec3> pts(5, Vec3{2.0f, 2.0f, 2.0f});
  for (const auto& index : all_backends(pts, 0.5f)) {
    EXPECT_EQ(sorted_neighbors(*index, pts[2], 0.5f, 2),
              (std::vector<std::uint32_t>{0, 1, 3, 4}))
        << index->name();
    EXPECT_EQ(sorted_neighbors(*index, pts[0], 0.5f, kNoSelf),
              (std::vector<std::uint32_t>{0, 1, 2, 3, 4}))
        << index->name();
  }
}

TEST(NeighborIndex, QueryCountMatchesQuerySphere) {
  const auto c = parity_cases()[1];
  const auto backends = all_backends(c.points, c.eps);
  for (std::uint32_t q = 0; q < c.points.size(); q += 131) {
    const auto expected = static_cast<std::uint32_t>(
        brute_neighbors(c.points, c.points[q], c.eps, q).size());
    for (const auto& index : backends) {
      rt::TraversalStats stats;
      EXPECT_EQ(index->query_count(c.points[q], c.eps, q, stats), expected)
          << index->name();
    }
  }
}

TEST(NeighborIndex, QueryCountHonorsStopAtHint) {
  // Dense blob: every point has many neighbors.  A capped count must return
  // at least the cap when the true count reaches it (backends that cannot
  // terminate — the RT scene — return the exact count, which also
  // satisfies the contract), and the exact count otherwise.
  const auto dataset = data::single_blob(2000, 0.5f, 33);
  const float eps = 0.4f;
  for (const auto& index : all_backends(dataset.points, eps)) {
    for (const std::uint32_t q : {0u, 500u, 1999u}) {
      rt::TraversalStats stats;
      const std::uint32_t full =
          index->query_count(dataset.points[q], eps, q, stats);
      const std::uint32_t capped =
          index->query_count(dataset.points[q], eps, q, stats, 3);
      if (full >= 3) {
        EXPECT_GE(capped, 3u) << index->name();
        EXPECT_LE(capped, full) << index->name();
      } else {
        EXPECT_EQ(capped, full) << index->name();
      }
    }
  }
}

TEST(NeighborIndex, EarlyExitSavesWorkWhereTraversalCanStop) {
  const auto dataset = data::single_blob(4000, 0.5f, 34);
  const float eps = 0.5f;
  for (const IndexKind kind :
       {IndexKind::kBruteForce, IndexKind::kGrid, IndexKind::kPointBvh}) {
    const auto index = make_index(dataset.points, eps, kind);
    rt::TraversalStats full_stats;
    rt::TraversalStats capped_stats;
    for (std::uint32_t q = 0; q < 200; ++q) {
      (void)index->query_count(dataset.points[q], eps, q, full_stats);
      (void)index->query_count(dataset.points[q], eps, q, capped_stats, 5);
    }
    EXPECT_LT(capped_stats.isect_calls, full_stats.isect_calls / 2)
        << index->name();
  }
}

TEST(NeighborIndex, QueryBoxParity) {
  const auto c = parity_cases()[0];
  const auto backends = all_backends(c.points, c.eps);
  const geom::Aabb boxes[] = {
      {{2, 2, 2}, {6, 7, 8}},
      {{-10, -10, -10}, {30, 30, 30}},  // everything
      {{19, 19, 19}, {19.5f, 19.5f, 19.5f}},
  };
  for (const auto& box : boxes) {
    std::vector<std::uint32_t> expected;
    for (std::uint32_t j = 0; j < c.points.size(); ++j) {
      if (box.contains(c.points[j])) expected.push_back(j);
    }
    for (const auto& index : backends) {
      std::vector<std::uint32_t> ids;
      rt::TraversalStats stats;
      index->query_box(box, [&](std::uint32_t j) { ids.push_back(j); },
                       stats);
      std::sort(ids.begin(), ids.end());
      EXPECT_EQ(ids, expected) << index->name();
    }
  }
}

TEST(NeighborIndex, QueryAllVisitsEveryPairOnce) {
  const auto dataset = data::taxi_gps(800, 41);
  const float eps = 0.3f;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> expected;
  for (std::uint32_t i = 0; i < dataset.points.size(); ++i) {
    for (const auto j :
         brute_neighbors(dataset.points, dataset.points[i], eps, i)) {
      expected.emplace_back(i, j);
    }
  }
  std::sort(expected.begin(), expected.end());
  for (const auto& index : all_backends(dataset.points, eps)) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    const rt::LaunchStats stats = index->query_all(
        eps,
        [&](std::uint32_t i, std::uint32_t j) { pairs.emplace_back(i, j); },
        /*threads=*/1);
    std::sort(pairs.begin(), pairs.end());
    EXPECT_EQ(pairs, expected) << index->name();
    EXPECT_EQ(stats.work.rays, dataset.points.size()) << index->name();
  }
}

TEST(DeltaTail, CandidatesCoverEveryTailIdOnceAcrossRebuilds) {
  // Uneven append batches drive the tail past both re-index triggers
  // (kResidue, then indexed / kResidueShare once the indexed tail passes
  // kResidue * kResidueShare), in every traversal layout.  After each append,
  // every tail id must surface exactly once for a box holding all points,
  // no id below the tail may surface, and a small box must yield a
  // superset of the tail points inside it.
  constexpr std::size_t kFirst = 500;
  constexpr std::size_t kLongTail =
      DeltaTail::kResidue * DeltaTail::kResidueShare * 3 / 2;
  const auto pts = data::uniform_cube(kFirst + kLongTail, 20.0f, 3, 107).points;
  const std::span<const Vec3> all(pts);
  geom::Aabb everything;
  for (const Vec3& p : all) everything.grow(p);
  for (const rt::TraversalWidth width :
       {rt::TraversalWidth::kBinary, rt::TraversalWidth::kWide}) {
    rt::BuildOptions build;
    build.width = width;
    DeltaTail tail(kFirst);
    std::size_t size = kFirst;
    std::size_t step = 1;
    int rounds = 0;
    while (size < all.size()) {
      size = std::min(all.size(), size + step);
      step = step * 7 % 389 + 1;
      tail.absorb(all.first(size), build);
      ++rounds;
      const std::span<const Vec3> now = all.first(size);
      rt::TraversalStats stats;
      std::vector<int> seen(size, 0);
      tail.for_each_candidate(now, everything, stats, [&](std::uint32_t j) {
        EXPECT_LT(j, size);
        if (j < size) ++seen[j];
        return rt::TraversalControl::kContinue;
      });
      for (std::size_t j = 0; j < size; ++j) {
        ASSERT_EQ(seen[j], j < kFirst ? 0 : 1)
            << "id " << j << " after " << size << " points";
      }
      const geom::Aabb box = geom::Aabb::of_sphere(all[size - 1], 1.5f);
      std::vector<int> hit(size, 0);
      tail.for_each_candidate(now, box, stats, [&](std::uint32_t j) {
        if (j < size) hit[j] = 1;
        return rt::TraversalControl::kContinue;
      });
      for (std::size_t j = kFirst; j < size; ++j) {
        if (box.contains(all[j])) {
          ASSERT_EQ(hit[j], 1) << "id " << j;
        }
      }
    }
    EXPECT_GT(rounds, 20);
  }
}

TEST(NeighborIndex, RadiusConstraintsAreEnforced) {
  const auto dataset = data::taxi_gps(500, 42);
  rt::TraversalStats stats;
  const GridIndex grid(dataset.points, 0.5f);
  EXPECT_THROW(grid.query_sphere(dataset.points[0], 0.6f, 0,
                                 [](std::uint32_t) {}, stats),
               std::invalid_argument);
  // Smaller radii are fine on the grid (one-ring still covers them).
  EXPECT_NO_THROW(grid.query_sphere(dataset.points[0], 0.3f, 0,
                                    [](std::uint32_t) {}, stats));

  const BvhRtIndex rt_scene(dataset.points, 0.5f);
  EXPECT_THROW(rt_scene.query_sphere(dataset.points[0], 0.4f, 0,
                                     [](std::uint32_t) {}, stats),
               std::invalid_argument);
}

TEST(NeighborIndex, DenseBoxHandlesRadiiFarAboveBuildEps) {
  // Build with a tiny eps over spread data, then query with a radius
  // thousands of cells wide: the index must degrade to a scan (not walk an
  // astronomically large cell range) and stay exact.
  const auto dataset = data::uniform_cube(2000, 100.0f, 3, 44);
  const auto index =
      make_index(dataset.points, 0.05f, IndexKind::kDenseBox);
  const float big = 100.0f;
  const auto expected =
      brute_neighbors(dataset.points, dataset.points[0], big, 0);
  EXPECT_EQ(sorted_neighbors(*index, dataset.points[0], big, 0), expected);
  rt::TraversalStats stats;
  EXPECT_EQ(index->query_count(dataset.points[0], big, 0, stats),
            expected.size());
}

TEST(NeighborIndex, FactoryResolvesAutoAndRejectsBadEps) {
  const auto small = data::taxi_gps(100, 43);
  const auto index = make_index(small.points, 0.3f);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->kind(), IndexKind::kBruteForce);  // tiny => brute
  EXPECT_NE(index->kind(), IndexKind::kAuto);
  EXPECT_EQ(choose_index_kind(small.points, 0.3f), IndexKind::kBruteForce);
  EXPECT_THROW(make_index(small.points, 0.0f), std::invalid_argument);
}

TEST(NeighborIndex, ToStringParseRoundTrip) {
  for (const IndexKind kind : kAllIndexKinds) {
    const auto parsed = parse_index_kind(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(parse_index_kind("auto"), IndexKind::kAuto);
  EXPECT_EQ(parse_index_kind("nonsense"), std::nullopt);
}

// ---------------------------------------------------------------------------
// Clustering equivalence: every DBSCAN entry point produces an equivalent
// labeling (up to relabeling / legal border ties) on every backend.
// ---------------------------------------------------------------------------

TEST(NeighborIndexClustering, EngineEquivalentAcrossBackends) {
  const auto dataset = data::taxi_gps(3000, 51);
  const Params params{0.3f, 10};
  for (const IndexKind kind : kAllIndexKinds) {
    const auto index = make_index(dataset.points, params.eps, kind);
    for (const bool early_exit : {false, true}) {
      dbscan::IndexEngineOptions options;
      options.early_exit = early_exit;
      const auto run =
          dbscan::cluster_with_index(*index, params, options);
      testutil::expect_matches_reference(dataset.points, params,
                                         run.clustering, index->name());
    }
  }
}

TEST(NeighborIndexClustering, EngineEquivalentOnDegenerateData) {
  const auto pts = colinear_with_duplicates();
  const Params params{0.6f, 4};
  for (const IndexKind kind : kAllIndexKinds) {
    const auto index = make_index(pts, params.eps, kind);
    const auto run = dbscan::cluster_with_index(*index, params);
    testutil::expect_matches_reference(pts, params, run.clustering,
                                       index->name());
  }
}

TEST(NeighborIndexClustering, ClusterApiAcceptsEveryBackend) {
  const auto dataset = data::two_rings(2500, 52);
  const Params params{0.8f, 5};
  const auto reference = dbscan::sequential_dbscan(dataset.points, params);
  for (const IndexKind kind : kAllIndexKinds) {
    const ClusterResult r =
        cluster(dataset.points, params.eps, params.min_pts, kind);
    dbscan::Clustering as_clustering;
    as_clustering.labels = r.labels;
    as_clustering.is_core = r.is_core;
    as_clustering.cluster_count = r.cluster_count;
    const auto eq = dbscan::check_equivalent(dataset.points, params,
                                             reference, as_clustering);
    EXPECT_TRUE(eq.equivalent) << to_string(kind) << ": " << eq.reason;
  }
  // kAuto (the default) also resolves and clusters.
  const ClusterResult r = cluster(dataset.points, params.eps, params.min_pts);
  EXPECT_EQ(r.labels.size(), dataset.points.size());
}

TEST(NeighborIndexClustering, VariantsHonorParamsIndex) {
  const auto dataset = data::taxi_gps(2000, 53);
  Params params{0.3f, 10};

  for (const IndexKind kind : kAllIndexKinds) {
    params.index = kind;
    const auto fd = dbscan::fdbscan(dataset.points, params);
    testutil::expect_matches_reference(dataset.points, params, fd.clustering,
                                       "fdbscan");
    const auto seq = dbscan::sequential_dbscan(dataset.points, params);
    testutil::expect_matches_reference(dataset.points, params, seq,
                                       "sequential");
  }

  // G-DBSCAN and DenseBox accept a substituted backend too (spot-check one
  // each; their kAuto defaults are covered by their own suites).
  params.index = IndexKind::kGrid;
  const auto gd = dbscan::gdbscan(dataset.points, params);
  testutil::expect_matches_reference(dataset.points, params, gd.clustering,
                                     "gdbscan+grid");
  const auto db = dbscan::fdbscan_densebox(dataset.points, params);
  testutil::expect_matches_reference(dataset.points, params, db.clustering,
                                     "densebox+grid");
}

}  // namespace
}  // namespace rtd::index
