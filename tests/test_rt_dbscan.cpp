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

TEST(RtDbscan, TriangleModeMatchesSphereMode) {
  const auto dataset = data::taxi_gps(1500, 81);
  const Params params{0.3f, 10};
  const auto spheres = rt_dbscan(dataset.points, params);

  RtDbscanOptions tri_opts;
  tri_opts.geometry = GeometryMode::kTriangles;
  tri_opts.triangle_subdivisions = 1;
  const auto triangles = rt_dbscan(dataset.points, params, tri_opts);

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
  opts.geometry = GeometryMode::kTriangles;
  opts.triangle_subdivisions = 0;
  const auto r = rt_dbscan(dataset.points, params, opts);
  expect_matches_reference(dataset.points, params, r.clustering,
                           "rt-dbscan-triangles");
}

TEST(RtDbscan, TriangleModeDoesMoreWork) {
  // §VI-C: the AnyHit path costs more.  The work counters must show many
  // more primitive tests and non-zero AnyHit calls.
  const auto dataset = data::taxi_gps(1500, 83);
  const Params params{0.3f, 10};
  const auto spheres = rt_dbscan(dataset.points, params);
  RtDbscanOptions opts;
  opts.geometry = GeometryMode::kTriangles;
  const auto triangles = rt_dbscan(dataset.points, params, opts);

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

TEST(RtDbscanRunner, ReorderedRunnerMatches) {
  const auto dataset = data::taxi_gps(2000, 79);
  RtDbscanOptions reordered;
  reordered.reorder_queries = true;
  RtDbscanRunner runner(dataset.points, 0.3f, reordered);
  const auto cached = runner.run(10);
  const auto oneshot = rt_dbscan(dataset.points, {0.3f, 10});
  const auto eq = dbscan::check_equivalent(
      dataset.points, {0.3f, 10}, oneshot.clustering, cached.clustering);
  EXPECT_TRUE(eq.equivalent) << eq.reason;
}

TEST(RtDbscan, BothBuildersEquivalent) {
  const auto dataset = data::ionosphere3d(3000, 84);
  const Params params{2.0f, 10};
  RtDbscanOptions sah;
  sah.device.build.algorithm = rt::BuildAlgorithm::kBinnedSah;
  const auto a = rt_dbscan(dataset.points, params);
  const auto b = rt_dbscan(dataset.points, params, sah);
  const auto eq = dbscan::check_equivalent(dataset.points, params,
                                           a.clustering, b.clustering);
  EXPECT_TRUE(eq.equivalent) << eq.reason;
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

TEST(RtDbscanRunner, FirstRunMatchesOneShot) {
  const auto dataset = data::taxi_gps(3000, 89);
  const Params params{0.3f, 10};
  RtDbscanRunner runner(dataset.points, params.eps);
  EXPECT_FALSE(runner.counts_cached());
  const auto cached = runner.run(params.min_pts);
  EXPECT_TRUE(runner.counts_cached());
  const auto oneshot = rt_dbscan(dataset.points, params);
  const auto eq = dbscan::check_equivalent(
      dataset.points, params, oneshot.clustering, cached.clustering);
  EXPECT_TRUE(eq.equivalent) << eq.reason;
}

TEST(RtDbscanRunner, RerunsWithDifferentMinPtsMatchOneShots) {
  const auto dataset = data::taxi_gps(3000, 90);
  const float eps = 0.3f;
  RtDbscanRunner runner(dataset.points, eps);
  for (const std::uint32_t min_pts : {5u, 10u, 40u, 2u}) {
    const auto cached = runner.run(min_pts);
    const auto oneshot = rt_dbscan(dataset.points, {eps, min_pts});
    const auto eq =
        dbscan::check_equivalent(dataset.points, {eps, min_pts},
                                 oneshot.clustering, cached.clustering);
    EXPECT_TRUE(eq.equivalent) << "minPts=" << min_pts << ": " << eq.reason;
  }
}

TEST(RtDbscanRunner, CachedRunsSkipPhase1) {
  const auto dataset = data::taxi_gps(3000, 91);
  RtDbscanRunner runner(dataset.points, 0.3f);
  const auto first = runner.run(10);
  EXPECT_GT(first.phase1.work.rays, 0u);
  const auto second = runner.run(20);
  EXPECT_EQ(second.phase1.work.rays, 0u);  // no rays launched for phase 1
  EXPECT_EQ(second.phase1.seconds, 0.0);
}

TEST(RtDbscanRunner, TriangleModeFirstRunMatchesOneShot) {
  // §VI-C sessions are supported since the TriangleAccel refit path landed:
  // the runner tessellates once and replays phases over the cached counts.
  const auto dataset = data::taxi_gps(800, 93);
  const Params params{0.3f, 8};
  RtDbscanOptions opts;
  opts.geometry = GeometryMode::kTriangles;
  opts.triangle_subdivisions = 1;
  RtDbscanRunner runner(dataset.points, params.eps, opts);
  EXPECT_FALSE(runner.counts_cached());
  const auto cached = runner.run(params.min_pts);
  EXPECT_TRUE(runner.counts_cached());
  EXPECT_GT(cached.phase1.work.anyhit_calls, 0u);
  const auto oneshot = rt_dbscan(dataset.points, params, opts);
  EXPECT_EQ(cached.clustering.labels, oneshot.clustering.labels);
  EXPECT_EQ(cached.neighbor_counts, oneshot.neighbor_counts);
  // minPts re-run skips phase 1 entirely.
  const auto second = runner.run(2 * params.min_pts);
  EXPECT_EQ(second.phase1.work.rays, 0u);
  expect_matches_reference(dataset.points, {params.eps, 2 * params.min_pts},
                           second.clustering, "triangle-runner-rerun");
}

TEST(RtDbscanRunner, TriangleModeEpsSweepRefitsInPlace) {
  // set_eps on a triangle session rescales the tessellation and REFITS —
  // results must match a from-scratch run at every eps, across widths.
  // One thread: border points claimed by two clusters go to whichever
  // claim lands first, so exact labels only repeat on a serial run.
  const auto dataset = data::taxi_gps(600, 94);
  for (const rt::TraversalWidth width :
       {rt::TraversalWidth::kBinary, rt::TraversalWidth::kWide,
        rt::TraversalWidth::kWideQuantized}) {
    RtDbscanOptions opts;
    opts.geometry = GeometryMode::kTriangles;
    opts.triangle_subdivisions = 0;
    opts.device.threads = 1;
    opts.device.build.width = width;
    RtDbscanRunner runner(dataset.points, 0.2f, opts);
    (void)runner.run(5);
    for (const float eps : {0.45f, 0.15f, 0.3f}) {
      runner.set_eps(eps);
      EXPECT_FALSE(runner.counts_cached());
      const Params params{eps, 5};
      const auto swept = runner.run(params.min_pts);
      expect_matches_reference(dataset.points, params, swept.clustering,
                               "triangle-runner-eps-sweep");
      const auto oneshot = rt_dbscan(dataset.points, params, opts);
      EXPECT_EQ(swept.clustering.labels, oneshot.clustering.labels)
          << rt::to_string(width) << " eps=" << eps;
      EXPECT_EQ(swept.neighbor_counts, oneshot.neighbor_counts)
          << rt::to_string(width) << " eps=" << eps;
    }
  }
}

TEST(RtDbscanRunner, TriangleModeEmptyInputSweeps) {
  // Regression: an empty triangle session must allow set_eps (rescaling
  // nothing is a valid ε sweep), exactly like the sphere session does.
  RtDbscanOptions opts;
  opts.geometry = GeometryMode::kTriangles;
  RtDbscanRunner runner(std::vector<geom::Vec3>{}, 0.3f, opts);
  EXPECT_NO_THROW(runner.set_eps(0.5f));
  const auto r = runner.run(3);
  EXPECT_EQ(r.clustering.size(), 0u);
  EXPECT_EQ(r.clustering.cluster_count, 0u);
}

TEST(RtDbscan, TriangleModeWideWidthsMatchSphereMode) {
  // The §VI-C acceptance path: triangle geometry over the wide and
  // quantized kernels clusters identically to sphere mode.
  const auto dataset = data::taxi_gps(1200, 95);
  const Params params{0.3f, 10};
  const auto spheres = rt_dbscan(dataset.points, params);
  for (const rt::TraversalWidth width :
       {rt::TraversalWidth::kWide, rt::TraversalWidth::kWideQuantized}) {
    RtDbscanOptions opts;
    opts.geometry = GeometryMode::kTriangles;
    opts.device.build.width = width;
    const auto triangles = rt_dbscan(dataset.points, params, opts);
    const auto eq = dbscan::check_equivalent(
        dataset.points, params, spheres.clustering, triangles.clustering);
    EXPECT_TRUE(eq.equivalent) << rt::to_string(width) << ": " << eq.reason;
  }
}

TEST(PublicApi, ClusterConvenienceWrapper) {
  const auto pts = testutil::two_squares_and_outlier();
  const auto r = rtd::cluster(pts, 1.5f, 3);
  EXPECT_EQ(r.cluster_count, 2u);
  EXPECT_EQ(r.labels.size(), pts.size());
  EXPECT_EQ(r.labels[8], rtd::kNoise);
  EXPECT_GE(r.seconds, 0.0);
}

TEST(GeometryModeNames, ToString) {
  EXPECT_STREQ(to_string(GeometryMode::kSpheres), "spheres");
  EXPECT_STREQ(to_string(GeometryMode::kTriangles), "triangles");
}

}  // namespace
}  // namespace rtd::core
