// Input-validation / failure-injection tests: non-finite coordinates and a
// non-finite ε must be rejected up front by every clustering entry point (a
// single NaN makes every distance comparison false and silently produces
// all-noise output).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/clusterer.hpp"
#include "core/rt_dbscan.hpp"
#include "core/rt_knn.hpp"
#include "dbscan/dclustplus.hpp"
#include "dbscan/engine.hpp"
#include "dbscan/equivalence.hpp"
#include "dbscan/fdbscan.hpp"
#include "dbscan/fdbscan_densebox.hpp"
#include "dbscan/gdbscan.hpp"
#include "dbscan/sequential.hpp"
#include "data/generators.hpp"
#include "index/neighbor_index.hpp"
#include "rt/scene.hpp"

namespace rtd {
namespace {

using dbscan::Params;
using geom::Vec3;

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

std::vector<Vec3> poisoned(float bad, std::size_t at = 7) {
  auto dataset = data::taxi_gps(20, 501);
  dataset.points[at].y = bad;
  return dataset.points;
}

TEST(Validation, IsFinitePredicate) {
  EXPECT_TRUE(geom::is_finite(Vec3{1, 2, 3}));
  EXPECT_FALSE(geom::is_finite(Vec3{kNan, 0, 0}));
  EXPECT_FALSE(geom::is_finite(Vec3{0, kInf, 0}));
  EXPECT_FALSE(geom::is_finite(Vec3{0, 0, -kInf}));
}

TEST(Validation, RequireFiniteNamesTheOffendingIndex) {
  const auto pts = poisoned(kNan, 7);
  try {
    dbscan::require_finite(pts);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("7"), std::string::npos);
  }
}

TEST(Validation, AllEntryPointsRejectNan) {
  const auto pts = poisoned(kNan);
  const Params params{1.0f, 3};
  EXPECT_THROW(dbscan::sequential_dbscan(pts, params),
               std::invalid_argument);
  EXPECT_THROW(dbscan::fdbscan(pts, params), std::invalid_argument);
  EXPECT_THROW(dbscan::gdbscan(pts, params), std::invalid_argument);
  EXPECT_THROW(dbscan::dclust_plus(pts, params), std::invalid_argument);
  EXPECT_THROW(core::rt_dbscan(pts, params), std::invalid_argument);
  EXPECT_THROW(core::rt_knn(pts, 3), std::invalid_argument);
  EXPECT_THROW(
      core::rt_dbscan(pts, {1.0f, 3, index::IndexKind::kTriangles}),
      std::invalid_argument);
}

TEST(Validation, AllEntryPointsRejectInfinity) {
  const auto pts = poisoned(kInf);
  const Params params{1.0f, 3};
  EXPECT_THROW(dbscan::sequential_dbscan(pts, params),
               std::invalid_argument);
  EXPECT_THROW(dbscan::fdbscan(pts, params), std::invalid_argument);
  EXPECT_THROW(core::rt_dbscan(pts, params), std::invalid_argument);
}

TEST(Validation, AllEntryPointsRejectNonFiniteEps) {
  const auto pts = data::taxi_gps(200, 503).points;
  const auto grid = index::make_index(pts, 0.5f, index::IndexKind::kGrid);
  rt::SphereAccel accel(pts, 0.5f);
  for (const float eps : {kNan, kInf}) {
    const Params params{eps, 3};
    EXPECT_THROW(core::rt_dbscan(pts, params), std::invalid_argument) << eps;
    // A multi-threaded run must throw on the caller, not inside a launch.
    EXPECT_THROW(core::rt_dbscan(pts, params, {.threads = 4}),
                 std::invalid_argument)
        << eps;
    EXPECT_THROW(core::rt_dbscan(pts, {eps, 3, index::IndexKind::kTriangles}),
                 std::invalid_argument)
        << eps;
    EXPECT_THROW(dbscan::fdbscan(pts, params), std::invalid_argument) << eps;
    EXPECT_THROW(dbscan::gdbscan(pts, params), std::invalid_argument) << eps;
    EXPECT_THROW(dbscan::sequential_dbscan(pts, params), std::invalid_argument)
        << eps;
    EXPECT_THROW(dbscan::fdbscan_densebox(pts, params), std::invalid_argument)
        << eps;
    EXPECT_THROW(dbscan::dclust_plus(pts, params), std::invalid_argument)
        << eps;
    EXPECT_THROW(dbscan::cluster_with_index(*grid, params),
                 std::invalid_argument)
        << eps;
    EXPECT_THROW(index::make_index(pts, eps), std::invalid_argument) << eps;
    EXPECT_THROW(rt::SphereAccel(pts, eps), std::invalid_argument) << eps;
    EXPECT_THROW(accel.set_radius(eps, 1), std::invalid_argument) << eps;
  }
  EXPECT_EQ(accel.radius(), 0.5f);

  // rt_knn's round options: growth must be finite and > 1, at least one
  // round, and the initial radius finite and >= 0 (0 = from density).
  const auto knn_rejects = [&](auto set) {
    core::RtKnnOptions opts;
    set(opts);
    EXPECT_THROW(core::rt_knn(pts, 3, opts), std::invalid_argument);
  };
  knn_rejects([](core::RtKnnOptions& o) { o.growth = kNan; });
  knn_rejects([](core::RtKnnOptions& o) { o.growth = kInf; });
  knn_rejects([](core::RtKnnOptions& o) { o.growth = 0.5f; });
  knn_rejects([](core::RtKnnOptions& o) { o.max_rounds = 0; });
  knn_rejects([](core::RtKnnOptions& o) { o.initial_radius = kNan; });
  knn_rejects([](core::RtKnnOptions& o) { o.initial_radius = -1.0f; });
  knn_rejects([](core::RtKnnOptions& o) { o.initial_radius = kInf; });
  // The probe that used to return +inf distances: a tiny start radius with a
  // NaN growth.
  knn_rejects([](core::RtKnnOptions& o) {
    o.initial_radius = 1e-9f;
    o.growth = kNan;
  });
}

TEST(Validation, ForeignEpsThrowsOnTheCallerAtEveryThreadCount) {
  // An ε the index cannot serve is caught inside the launch, by the
  // backend's query: the throw must reach the caller at four threads as it
  // does at one, not end the process.
  const auto pts = data::taxi_gps(2000, 504).points;
  const struct {
    index::IndexKind kind;
    float eps;  // the index is built at 0.5
  } cases[] = {{index::IndexKind::kBvhRt, 0.4f},
               {index::IndexKind::kTriangles, 0.4f},
               {index::IndexKind::kGrid, 0.6f}};
  for (const auto& c : cases) {
    const auto index = index::make_index(pts, 0.5f, c.kind);
    for (const int threads : {1, 4}) {
      EXPECT_THROW(dbscan::cluster_with_index(*index, {c.eps, 5},
                                              {.threads = threads}),
                   std::invalid_argument)
          << index::to_string(c.kind) << " threads=" << threads;
    }
  }
}

TEST(Validation, FiniteDataPasses) {
  const auto dataset = data::taxi_gps(50, 502);
  EXPECT_NO_THROW(dbscan::require_finite(dataset.points));
  EXPECT_NO_THROW(core::rt_dbscan(dataset.points, {0.5f, 3}));
}

TEST(Validation, ExtremeButFiniteCoordinatesWork) {
  // Very large magnitudes are legal as long as they are finite.
  std::vector<Vec3> pts{{1e18f, 0, 0}, {1e18f, 1, 0}, {1e18f, 2, 0},
                        {-1e18f, 0, 0}};
  const auto r = core::rt_dbscan(pts, {2.0f, 2});
  EXPECT_EQ(r.clustering.size(), pts.size());
  const auto ref = dbscan::sequential_dbscan(pts, {2.0f, 2});
  EXPECT_EQ(r.clustering.cluster_count, ref.cluster_count);

  // 1e14 / 1e-6 = 1e20 cells on the x axis: the cell coordinate exceeds
  // int64 and the 21-bit cell key, so every uniform-grid user must clamp
  // it.  Truth is the brute-force reference: the two near points form one
  // cluster and the two far duplicates another.
  const std::vector<Vec3> far{
      {0, 0, 0}, {1e-7f, 0, 0}, {1e14f, 0, 0}, {1e14f, 0, 0}};
  const float eps = 1e-6f;
  const auto truth = dbscan::sequential_dbscan(
      far, {eps, 2, index::IndexKind::kBruteForce});
  ASSERT_EQ(truth.cluster_count, 2u);
  const auto expect_truth = [&](const dbscan::Clustering& c,
                                const char* who) {
    const auto eq = dbscan::check_equivalent(far, {eps, 2}, truth, c);
    EXPECT_TRUE(eq.equivalent) << who << ": " << eq.reason;
  };
  expect_truth(
      dbscan::sequential_dbscan(far, {eps, 2, index::IndexKind::kGrid}),
      "sequential_dbscan (kGrid)");
  expect_truth(dbscan::dclust_plus(far, {eps, 2}).clustering, "dclust_plus");
  Clusterer session(far, Options().with_backend(index::IndexKind::kGrid));
  expect_truth(session.run(eps, 2).to_clustering(), "kGrid session");
  EXPECT_TRUE(dbscan::check_valid(far, {eps, 2}, truth).equivalent);
  // Dense-box certificates trust whole cells, so aliasing is refused.
  EXPECT_THROW(index::make_index(far, eps, index::IndexKind::kDenseBox),
               std::invalid_argument);
}

}  // namespace
}  // namespace rtd
