#include "dbscan/fdbscan.hpp"

#include <gtest/gtest.h>

#include "data/generators.hpp"
#include "dbscan_test_util.hpp"

namespace rtd::dbscan {
namespace {

using testutil::expect_matches_reference;

TEST(Fdbscan, RejectsBadParams) {
  const std::vector<geom::Vec3> pts{{0, 0, 0}};
  EXPECT_THROW(fdbscan(pts, {0.0f, 3}), std::invalid_argument);
  EXPECT_THROW(fdbscan(pts, {1.0f, 0}), std::invalid_argument);
}

TEST(Fdbscan, EmptyInput) {
  const std::vector<geom::Vec3> pts;
  const auto r = fdbscan(pts, {1.0f, 3});
  EXPECT_EQ(r.clustering.size(), 0u);
}

TEST(Fdbscan, MatchesReferenceOnHandCheckedData) {
  const auto pts = testutil::two_squares_and_outlier();
  const Params params{1.5f, 3};
  const auto r = fdbscan(pts, params);
  expect_matches_reference(pts, params, r.clustering, "fdbscan");
  EXPECT_EQ(r.clustering.cluster_count, 2u);
}

TEST(Fdbscan, MatchesReferenceOnAmbiguousBorder) {
  const auto pts = testutil::ambiguous_border();
  const Params params{2.05f, 6};
  const auto r = fdbscan(pts, params);
  expect_matches_reference(pts, params, r.clustering, "fdbscan");
  // The bridge point is a border point of one of the two knots.
  EXPECT_FALSE(r.clustering.is_core[testutil::kAmbiguousBridgeIndex]);
  EXPECT_NE(r.clustering.labels[testutil::kAmbiguousBridgeIndex], kNoiseLabel);
}

class FdbscanDatasetTest
    : public ::testing::TestWithParam<std::tuple<data::PaperDataset, float,
                                                 std::uint32_t>> {};

TEST_P(FdbscanDatasetTest, MatchesReference) {
  const auto [which, eps, min_pts] = GetParam();
  const auto dataset = data::make_paper_dataset(which, 4000, 77);
  const Params params{eps, min_pts};
  const auto r = fdbscan(dataset.points, params);
  expect_matches_reference(dataset.points, params, r.clustering, "fdbscan");
}

INSTANTIATE_TEST_SUITE_P(
    PaperDatasets, FdbscanDatasetTest,
    ::testing::Values(
        std::make_tuple(data::PaperDataset::k3DRoad, 0.5f, 10u),
        std::make_tuple(data::PaperDataset::k3DRoad, 1.0f, 30u),
        std::make_tuple(data::PaperDataset::kPorto, 0.3f, 10u),
        std::make_tuple(data::PaperDataset::kPorto, 0.8f, 50u),
        std::make_tuple(data::PaperDataset::kNgsim, 0.05f, 10u),
        std::make_tuple(data::PaperDataset::k3DIono, 2.0f, 10u),
        std::make_tuple(data::PaperDataset::k3DIono, 4.0f, 40u)));

TEST(Fdbscan, EarlyExitProducesSameClustering) {
  const auto dataset = data::taxi_gps(5000, 31);
  const Params params{0.3f, 20};
  const auto full = fdbscan(dataset.points, params, FdbscanOptions::with_early_exit(false));
  const auto early = fdbscan(dataset.points, params, FdbscanOptions::with_early_exit(true));
  const auto eq = check_equivalent(dataset.points, params, full.clustering,
                                   early.clustering);
  EXPECT_TRUE(eq.equivalent) << eq.reason;
}

TEST(Fdbscan, EarlyExitDoesLessPhase1Work) {
  // Dense data: early exit should cut primitive tests substantially.
  const auto dataset = data::single_blob(8000, 1.0f, 32);
  const Params params{0.5f, 10};
  const auto full = fdbscan(dataset.points, params, FdbscanOptions::with_early_exit(false));
  const auto early = fdbscan(dataset.points, params, FdbscanOptions::with_early_exit(true));
  EXPECT_LT(early.phase1_work.isect_calls, full.phase1_work.isect_calls / 2);
  // Phase 2 is identical (no early exit possible there).
  EXPECT_EQ(early.phase2_work.isect_calls, full.phase2_work.isect_calls);
}

TEST(Fdbscan, SerialAndParallelBuildsGiveEquivalentResults) {
  const auto dataset = data::road_network(3000, 33);
  const Params params{0.5f, 10};
  FdbscanOptions parallel;
  FdbscanOptions serial;
  serial.build.parallel = false;
  const auto a = fdbscan(dataset.points, params, parallel);
  const auto b = fdbscan(dataset.points, params, serial);
  const auto eq =
      check_equivalent(dataset.points, params, a.clustering, b.clustering);
  EXPECT_TRUE(eq.equivalent) << eq.reason;
}

TEST(Fdbscan, SingleThreadMatchesParallel) {
  const auto dataset = data::two_rings(3000, 34);
  const Params params{0.8f, 5};
  FdbscanOptions serial;
  serial.threads = 1;
  const auto a = fdbscan(dataset.points, params, serial);
  const auto b = fdbscan(dataset.points, params);
  const auto eq =
      check_equivalent(dataset.points, params, a.clustering, b.clustering);
  EXPECT_TRUE(eq.equivalent) << eq.reason;
}

TEST(Fdbscan, ReportsTraversalWork) {
  const auto dataset = data::taxi_gps(2000, 35);
  const auto r = fdbscan(dataset.points, {0.3f, 10});
  EXPECT_EQ(r.phase1_work.rays, dataset.size());
  EXPECT_GT(r.phase1_work.nodes_visited, 0u);
  EXPECT_GT(r.phase1_work.isect_calls, 0u);
  // Phase 2 only launches traversals from core points.
  EXPECT_EQ(r.phase2_work.rays, r.clustering.core_count());
}

TEST(Fdbscan, TimingsPopulated) {
  const auto dataset = data::taxi_gps(2000, 36);
  const auto r = fdbscan(dataset.points, {0.3f, 10});
  const auto& t = r.clustering.timings;
  EXPECT_GT(t.index_build_seconds, 0.0);
  EXPECT_GT(t.core_phase_seconds, 0.0);
  EXPECT_GT(t.cluster_phase_seconds, 0.0);
  EXPECT_GE(t.total_seconds,
            t.index_build_seconds + t.clustering_seconds() - 1e-6);
}

}  // namespace
}  // namespace rtd::dbscan
