#include "core/rt_dbscan.hpp"

#include <gtest/gtest.h>

#include "core/api.hpp"
#include "data/generators.hpp"
#include "dbscan_test_util.hpp"

namespace rtd::core {
namespace {

using dbscan::kNoiseLabel;
using dbscan::Params;
using testutil::expect_matches_reference;

TEST(RtDbscan, RejectsBadParams) {
  const std::vector<geom::Vec3> pts{{0, 0, 0}};
  EXPECT_THROW(rt_dbscan(pts, {0.0f, 3}), std::invalid_argument);
  EXPECT_THROW(rt_dbscan(pts, {1.0f, 0}), std::invalid_argument);
  // Only the RT scenes: spheres (kBvhRt, kAuto) or triangles.
  EXPECT_THROW(rt_dbscan(pts, {1.0f, 3, index::IndexKind::kGrid}),
               std::invalid_argument);
}

TEST(RtDbscan, EmptyInput) {
  const std::vector<geom::Vec3> pts;
  const auto r = rt_dbscan(pts, {1.0f, 3});
  EXPECT_EQ(r.clustering.size(), 0u);
  EXPECT_EQ(r.clustering.cluster_count, 0u);
}

TEST(RtDbscan, MatchesReferenceOnHandCheckedData) {
  const auto pts = testutil::two_squares_and_outlier();
  const Params params{1.5f, 3};
  const auto r = rt_dbscan(pts, params);
  expect_matches_reference(pts, params, r.clustering, "rt-dbscan");
  EXPECT_EQ(r.clustering.cluster_count, 2u);
  EXPECT_EQ(r.clustering.labels[8], kNoiseLabel);
}

TEST(RtDbscan, MatchesReferenceOnAmbiguousBorder) {
  const auto pts = testutil::ambiguous_border();
  const Params params{2.05f, 6};
  const auto r = rt_dbscan(pts, params);
  expect_matches_reference(pts, params, r.clustering, "rt-dbscan");
}

class RtDbscanDatasetTest
    : public ::testing::TestWithParam<std::tuple<data::PaperDataset, float,
                                                 std::uint32_t>> {};

TEST_P(RtDbscanDatasetTest, MatchesReference) {
  const auto [which, eps, min_pts] = GetParam();
  const auto dataset = data::make_paper_dataset(which, 4000, 80);
  const Params params{eps, min_pts};
  const auto r = rt_dbscan(dataset.points, params);
  expect_matches_reference(dataset.points, params, r.clustering,
                           "rt-dbscan");
}

INSTANTIATE_TEST_SUITE_P(
    PaperDatasets, RtDbscanDatasetTest,
    ::testing::Values(
        std::make_tuple(data::PaperDataset::k3DRoad, 0.5f, 10u),
        std::make_tuple(data::PaperDataset::k3DRoad, 1.0f, 30u),
        std::make_tuple(data::PaperDataset::kPorto, 0.3f, 10u),
        std::make_tuple(data::PaperDataset::kPorto, 0.8f, 50u),
        std::make_tuple(data::PaperDataset::kNgsim, 0.05f, 10u),
        std::make_tuple(data::PaperDataset::kNgsim, 0.5f, 100u),
        std::make_tuple(data::PaperDataset::k3DIono, 2.0f, 10u),
        std::make_tuple(data::PaperDataset::k3DIono, 4.0f, 40u)));

/// The same parameters on the §VI-C triangle backend.
Params triangles_of(const Params& params) {
  return Params{params.eps, params.min_pts, index::IndexKind::kTriangles};
}

TEST(RtDbscan, TriangleModeMatchesSphereMode) {
  const auto dataset = data::taxi_gps(1500, 81);
  const Params params{0.3f, 10};
  const auto spheres = rt_dbscan(dataset.points, params);

  RtDbscanOptions tri_opts;
  tri_opts.triangle_subdivisions = 1;
  const auto triangles =
      rt_dbscan(dataset.points, triangles_of(params), tri_opts);

  const auto eq = dbscan::check_equivalent(
      dataset.points, params, spheres.clustering, triangles.clustering);
  EXPECT_TRUE(eq.equivalent) << eq.reason;
}

TEST(RtDbscan, TriangleModeMatchesReferenceAtZeroSubdivisions) {
  // Even the coarse 20-face icosahedron is exact thanks to circumscription
  // + the exact AnyHit distance filter.
  const auto dataset = data::road_network(1000, 82);
  const Params params{0.5f, 5};
  RtDbscanOptions opts;
  opts.triangle_subdivisions = 0;
  const auto r = rt_dbscan(dataset.points, triangles_of(params), opts);
  expect_matches_reference(dataset.points, params, r.clustering,
                           "rt-dbscan-triangles");
}

TEST(RtDbscan, TriangleModeDoesMoreWork) {
  // §VI-C: the AnyHit path costs more.  The work counters must show many
  // more primitive tests and non-zero AnyHit calls.
  const auto dataset = data::taxi_gps(1500, 83);
  const Params params{0.3f, 10};
  const auto spheres = rt_dbscan(dataset.points, params);
  const auto triangles = rt_dbscan(dataset.points, triangles_of(params));

  EXPECT_EQ(spheres.phase1.work.anyhit_calls, 0u);
  EXPECT_GT(triangles.phase1.work.anyhit_calls, 0u);
  EXPECT_GT(triangles.phase1.work.isect_calls,
            spheres.phase1.work.isect_calls);
}

TEST(RtDbscan, ReorderedQueriesGiveEquivalentResults) {
  // The RTNN-style Morton launch order changes scheduling only.
  const auto dataset = data::taxi_gps(3000, 78);
  const Params params{0.3f, 10};
  RtDbscanOptions reordered;
  reordered.reorder_queries = true;
  const auto a = rt_dbscan(dataset.points, params);
  const auto b = rt_dbscan(dataset.points, params, reordered);
  const auto eq = dbscan::check_equivalent(dataset.points, params,
                                           a.clustering, b.clustering);
  EXPECT_TRUE(eq.equivalent) << eq.reason;
  // Work counters are identical: the same rays trace, in another order.
  EXPECT_EQ(a.phase1.work.nodes_visited, b.phase1.work.nodes_visited);
  EXPECT_EQ(a.phase1.work.isect_calls, b.phase1.work.isect_calls);
  EXPECT_EQ(a.neighbor_counts, b.neighbor_counts);
}

TEST(RtDbscan, SingleThreadMatchesParallel) {
  const auto dataset = data::two_rings(2000, 85);
  const Params params{0.8f, 5};
  RtDbscanOptions serial;
  serial.device.threads = 1;
  const auto a = rt_dbscan(dataset.points, params, serial);
  const auto b = rt_dbscan(dataset.points, params);
  const auto eq = dbscan::check_equivalent(dataset.points, params,
                                           a.clustering, b.clustering);
  EXPECT_TRUE(eq.equivalent) << eq.reason;
}

TEST(RtDbscan, NeighborCountsAreExact) {
  const auto dataset = data::taxi_gps(2000, 86);
  const Params params{0.3f, 10};
  const auto r = rt_dbscan(dataset.points, params);
  ASSERT_EQ(r.neighbor_counts.size(), dataset.size());
  const float e2 = params.eps_squared();
  for (std::uint32_t i = 0; i < dataset.size(); i += 37) {
    std::uint32_t expected = 0;
    for (std::uint32_t j = 0; j < dataset.size(); ++j) {
      if (j != i && geom::distance_squared(dataset.points[i],
                                           dataset.points[j]) <= e2) {
        ++expected;
      }
    }
    EXPECT_EQ(r.neighbor_counts[i], expected) << "point " << i;
  }
}

TEST(RtDbscan, PhaseStatsPopulated) {
  const auto dataset = data::taxi_gps(3000, 87);
  const auto r = rt_dbscan(dataset.points, {0.3f, 10});
  EXPECT_EQ(r.phase1.work.rays, dataset.size());
  EXPECT_EQ(r.phase2.work.rays, r.clustering.core_count());
  EXPECT_GT(r.accel_build.node_count, 0u);
  EXPECT_GT(r.clustering.timings.index_build_seconds, 0.0);
  EXPECT_GT(r.clustering.timings.core_phase_seconds, 0.0);
}

TEST(RtDbscan, MemoryFootprintHasNoNeighborLists) {
  // O(n) memory contract: the result's only per-point payloads are labels,
  // core flags and counts.  (Compile-time shape check, documented here.)
  const auto dataset = data::taxi_gps(1000, 88);
  const auto r = rt_dbscan(dataset.points, {0.3f, 10});
  EXPECT_EQ(r.clustering.labels.size(), dataset.size());
  EXPECT_EQ(r.clustering.is_core.size(), dataset.size());
  EXPECT_EQ(r.neighbor_counts.size(), dataset.size());
}

TEST(RtDbscan, TriangleModeWideWidthsMatchSphereMode) {
  // The §VI-C acceptance path: triangle geometry over the wide kernel
  // clusters identically to sphere mode.
  const auto dataset = data::taxi_gps(1200, 95);
  const Params params{0.3f, 10};
  const auto spheres = rt_dbscan(dataset.points, params);
  RtDbscanOptions opts;
  opts.device.build.width = rt::TraversalWidth::kWide;
  const auto triangles = rt_dbscan(dataset.points, triangles_of(params), opts);
  const auto eq = dbscan::check_equivalent(
      dataset.points, params, spheres.clustering, triangles.clustering);
  EXPECT_TRUE(eq.equivalent) << eq.reason;
}

TEST(PublicApi, ClusterConvenienceWrapper) {
  const auto pts = testutil::two_squares_and_outlier();
  const auto r = rtd::cluster(pts, 1.5f, 3);
  EXPECT_EQ(r.cluster_count, 2u);
  EXPECT_EQ(r.labels.size(), pts.size());
  EXPECT_EQ(r.labels[8], rtd::kNoise);
  EXPECT_GE(r.seconds, 0.0);
}

}  // namespace
}  // namespace rtd::core
