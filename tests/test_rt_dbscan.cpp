#include "core/rt_dbscan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/api.hpp"
#include "core/clusterer.hpp"
#include "data/generators.hpp"
#include "dbscan/engine.hpp"
#include "dbscan_test_util.hpp"
#include "dsu/atomic_disjoint_set.hpp"
#include "geom/morton.hpp"
#include "index/bvh_rt_index.hpp"

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

/// Both engine phases over `index`, launched in `order` — the body of
/// dbscan::cluster_with_index with the launch order made explicit.
struct OrderedRun {
  dbscan::Clustering clustering;
  rt::LaunchStats phase1;
  rt::LaunchStats phase2;
  std::vector<std::uint32_t> counts;
};

OrderedRun run_in_order(const index::NeighborIndex& index,
                        const Params& params,
                        std::span<const std::uint32_t> order) {
  OrderedRun r;
  const std::size_t n = index.size();
  r.phase1 = dbscan::index_phase1(index, params, order, false, 0, r.counts);
  r.clustering.is_core.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    r.clustering.is_core[i] = r.counts[i] + 1 >= params.min_pts ? 1 : 0;
  }
  dsu::AtomicDisjointSet dsu(n);
  std::vector<std::atomic<std::uint8_t>> claimed(n);
  r.phase2 = dbscan::index_phase2(index, params.eps, order,
                                  r.clustering.is_core, dsu, claimed, 0);
  dbscan::finalize_labels(
      n, [&](std::uint32_t x) { return dsu.find(x); }, r.clustering.is_core,
      r.clustering);
  return r;
}

TEST(RtDbscan, ReorderedQueriesGiveEquivalentResults) {
  // The Morton launch order every full pass uses changes scheduling only:
  // on one index, both phases in identity order and in Morton order count
  // the same neighbors, do the same traversal work and form the same
  // partition.
  const auto dataset = data::taxi_gps(3000, 78);
  const Params params{0.3f, 10};
  const index::BvhRtIndex index(dataset.points, params.eps);
  const auto identity = dbscan::query_launch_order(dataset.points, false);
  const auto morton = dbscan::query_launch_order(dataset.points, true);
  ASSERT_NE(identity, morton);  // otherwise the comparison proves nothing

  const OrderedRun a = run_in_order(index, params, identity);
  const OrderedRun b = run_in_order(index, params, morton);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.phase1.work.nodes_visited, b.phase1.work.nodes_visited);
  EXPECT_EQ(a.phase1.work.isect_calls, b.phase1.work.isect_calls);
  EXPECT_EQ(a.phase2.work.nodes_visited, b.phase2.work.nodes_visited);
  EXPECT_EQ(a.phase2.work.isect_calls, b.phase2.work.isect_calls);
  const auto eq = dbscan::check_equivalent(dataset.points, params,
                                           a.clustering, b.clustering);
  EXPECT_TRUE(eq.equivalent) << eq.reason;
  expect_matches_reference(dataset.points, params, b.clustering,
                           "rt-dbscan-morton-order");
}

TEST(LaunchOrder, MortonOrderIsAStableSortOfTheCodes) {
  // Points snapped to a coarse lattice: most slots share their Morton code
  // with others, so the order is only right if ties keep slot order.
  Rng rng(91);
  std::vector<geom::Vec3> pts(5000);
  for (auto& p : pts) {
    p = {static_cast<float>(rng.below(8)), static_cast<float>(rng.below(8)),
         static_cast<float>(rng.below(4))};
  }
  geom::Aabb bounds;
  for (const auto& p : pts) bounds.grow(p);
  std::vector<std::uint32_t> codes(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    codes[i] = geom::morton3_in(bounds, pts[i]);
  }
  std::vector<std::uint32_t> expected(pts.size());
  std::iota(expected.begin(), expected.end(), 0u);
  std::stable_sort(expected.begin(), expected.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return codes[a] < codes[b];
                   });

  for (const int threads : {1, 3, 0}) {
    EXPECT_EQ(dbscan::query_launch_order(pts, true, threads), expected)
        << threads << " threads";
  }
  std::vector<std::uint32_t> identity(pts.size());
  std::iota(identity.begin(), identity.end(), 0u);
  EXPECT_EQ(dbscan::query_launch_order(pts, false), identity);
  EXPECT_TRUE(dbscan::query_launch_order({}, true).empty());
  EXPECT_EQ(dbscan::query_launch_order(std::span(pts).first(1), true),
            std::vector<std::uint32_t>{0});
}

TEST(LaunchOrder, SingleThreadSessionRestoresCallerThreadCount) {
  // The session sorts its launch order under its own thread count; the
  // caller's ThreadCountGuard setting must survive run() (and the one-shot
  // engine).
  const ThreadCountGuard caller(3);
  const auto dataset = data::taxi_gps(2000, 92);
  Clusterer session(dataset.points, Options().with_threads(1));
  (void)session.run(0.3f, 8);
  EXPECT_EQ(hardware_threads(), 3);
  RtDbscanOptions serial;
  serial.threads = 1;
  (void)rt_dbscan(dataset.points, {0.3f, 8}, serial);
  EXPECT_EQ(hardware_threads(), 3);
}

TEST(RtDbscan, SingleThreadMatchesParallel) {
  const auto dataset = data::two_rings(2000, 85);
  const Params params{0.8f, 5};
  RtDbscanOptions serial;
  serial.threads = 1;
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
  const auto triangles = rt_dbscan(dataset.points, triangles_of(params));
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
