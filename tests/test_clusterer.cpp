// Session API suite: rtd::Clusterer must produce clusterings identical to
// fresh one-shot rtd::cluster() runs at every eps (for every backend and
// traversal width) while REUSING its index — refit, not rebuild, on the
// BVH-backed backends — and its structured results (membership views,
// RunStats, neighbor counts) must agree with the raw labels.
#include "core/clusterer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/api.hpp"
#include "data/generators.hpp"
#include "dbscan_test_util.hpp"

namespace rtd {
namespace {

using dbscan::Params;
using geom::Vec3;
using index::IndexKind;

/// "Identical clustering" in the DBSCAN sense (dbscan/equivalence.hpp):
/// exact core flags and cluster count, exact noise set (both are
/// deterministic given eps/minPts), and full equivalence — border points
/// may legally tie-break differently across runs on multi-core hosts.
void expect_identical_clustering(std::span<const Vec3> points,
                                 const Params& params,
                                 const ClusterResult& actual,
                                 const ClusterResult& expected,
                                 const char* what) {
  ASSERT_EQ(actual.labels.size(), expected.labels.size()) << what;
  EXPECT_EQ(actual.is_core, expected.is_core) << what;
  EXPECT_EQ(actual.cluster_count, expected.cluster_count) << what;
  for (std::size_t i = 0; i < actual.labels.size(); ++i) {
    EXPECT_EQ(actual.labels[i] == kNoise, expected.labels[i] == kNoise)
        << what << ": noise set differs at point " << i;
  }
  const auto eq = dbscan::check_equivalent(
      points, params, expected.to_clustering(), actual.to_clustering());
  EXPECT_TRUE(eq.equivalent) << what << ": " << eq.reason;
}

const std::vector<float> kSweepEps = {0.18f, 0.28f, 0.4f, 0.55f};

// ---------------------------------------------------------------------------
// Sweep parity: every backend, both sweep directions, the refit-vs-rebuild
// boundary asserted per backend.
// ---------------------------------------------------------------------------

TEST(ClustererSweep, MatchesOneShotClusterOnEveryBackend) {
  const auto dataset = data::taxi_gps(2500, 61);
  const std::uint32_t min_pts = 8;
  for (const IndexKind kind : index::kAllIndexKinds) {
    Clusterer session(dataset.points, Options().with_backend(kind));
    const auto curve = session.sweep(kSweepEps, min_pts);
    ASSERT_EQ(curve.size(), kSweepEps.size());
    const bool refittable = kind == IndexKind::kBvhRt ||
                            kind == IndexKind::kTriangles ||
                            kind == IndexKind::kPointBvh ||
                            kind == IndexKind::kBruteForce;
    for (std::size_t s = 0; s < curve.size(); ++s) {
      const ClusterResult& r = curve[s];
      EXPECT_EQ(r.eps, kSweepEps[s]);
      EXPECT_EQ(r.min_pts, min_pts);
      EXPECT_EQ(r.stats.backend, kind);
      // Entry 0 carries the one index build (at ε_max) and the shared
      // counting launch; later entries never rebuild — they refit where
      // the backend supports it (try_set_eps) and otherwise reuse the
      // ε_max build outright (grid/dense-box serve radii below build ε).
      if (s == 0) {
        EXPECT_TRUE(r.stats.index_rebuilt) << index::to_string(kind);
        EXPECT_FALSE(r.stats.counts_reused) << index::to_string(kind);
        EXPECT_GT(r.stats.phase1.work.rays, 0u) << index::to_string(kind);
      } else {
        EXPECT_FALSE(r.stats.index_rebuilt)
            << index::to_string(kind) << " step " << s;
        EXPECT_EQ(r.stats.index_refitted, refittable)
            << index::to_string(kind) << " step " << s;
        EXPECT_TRUE(r.stats.counts_reused)
            << index::to_string(kind) << " step " << s;
        EXPECT_EQ(r.stats.phase1.work.rays, 0u);  // shared pass, not rerun
      }
      const ClusterResult fresh =
          cluster(dataset.points, kSweepEps[s], min_pts, kind);
      expect_identical_clustering(dataset.points,
                                  Params{kSweepEps[s], min_pts, kind}, r,
                                  fresh, index::to_string(kind));
    }
    // Descending re-sweep on the same session: same ε_max, so not even
    // entry 0 rebuilds this time, and parity is order-independent.
    std::vector<float> descending(kSweepEps.rbegin(), kSweepEps.rend());
    const auto down = session.sweep(descending, min_pts);
    for (std::size_t s = 0; s < down.size(); ++s) {
      EXPECT_FALSE(down[s].stats.index_rebuilt)
          << index::to_string(kind) << " re-sweep step " << s;
      const ClusterResult fresh =
          cluster(dataset.points, descending[s], min_pts, kind);
      expect_identical_clustering(dataset.points,
                                  Params{descending[s], min_pts, kind},
                                  down[s], fresh, index::to_string(kind));
    }
  }
}

TEST(ClustererSweep, MatchesOneShotAcrossTraversalWidths) {
  // 6000 points: above rt::kWideBvhMinPrims, so kAuto also resolves wide;
  // explicit widths are honored at any size.
  const auto dataset = data::taxi_gps(6000, 62);
  const std::uint32_t min_pts = 10;
  for (const IndexKind kind : {IndexKind::kPointBvh, IndexKind::kBvhRt}) {
    for (const rt::TraversalWidth width :
         {rt::TraversalWidth::kBinary, rt::TraversalWidth::kWide,
          rt::TraversalWidth::kAuto}) {
      Clusterer session(dataset.points,
                        Options().with_backend(kind).with_width(width));
      const auto curve = session.sweep(kSweepEps, min_pts);
      for (std::size_t s = 0; s < curve.size(); ++s) {
        if (s == 0) {
          EXPECT_TRUE(curve[s].stats.index_rebuilt);
        } else {
          EXPECT_TRUE(curve[s].stats.index_refitted);
          EXPECT_FALSE(curve[s].stats.index_rebuilt);
        }
        const ClusterResult fresh =
            cluster(dataset.points, kSweepEps[s], min_pts, kind);
        expect_identical_clustering(
            dataset.points, Params{kSweepEps[s], min_pts, kind}, curve[s],
            fresh, rt::to_string(width));
      }
      // The resolved layout is reported: explicit requests are honored,
      // kAuto picks wide at this size.
      const rt::TraversalWidth reported = curve.back().stats.width;
      EXPECT_EQ(reported, width == rt::TraversalWidth::kBinary
                              ? rt::TraversalWidth::kBinary
                              : rt::TraversalWidth::kWide);
    }
  }
}

// ---------------------------------------------------------------------------
// min_pts reruns and the neighbor-count cache.
// ---------------------------------------------------------------------------

TEST(Clusterer, MinPtsRerunReusesCountsAndMatchesOneShot) {
  const auto dataset = data::taxi_gps(3000, 63);
  const float eps = 0.3f;
  Clusterer session(dataset.points);
  EXPECT_FALSE(session.counts_cached());
  (void)session.run(eps, 5);
  EXPECT_TRUE(session.counts_cached());
  for (const std::uint32_t min_pts : {20u, 3u, 50u}) {
    const ClusterResult& r = session.run(eps, min_pts);
    EXPECT_TRUE(r.stats.counts_reused) << min_pts;
    EXPECT_FALSE(r.stats.index_rebuilt);
    EXPECT_FALSE(r.stats.index_refitted);
    EXPECT_EQ(r.stats.phase1.work.rays, 0u);  // phase 1 did not run
    const ClusterResult fresh = cluster(dataset.points, eps, min_pts);
    expect_identical_clustering(dataset.points, Params{eps, min_pts}, r,
                                fresh, "minPts rerun");
  }
  // An eps change invalidates the cache...
  const ClusterResult& moved = session.run(eps * 1.3f, 5);
  EXPECT_FALSE(moved.stats.counts_reused);
  // ...and exact counts are cached again for the new eps.
  EXPECT_TRUE(session.counts_cached());
}

TEST(Clusterer, EarlyExitCapsCountsButReusesWhereValid) {
  const auto dataset = data::single_blob(2000, 0.5f, 64);
  const float eps = 0.4f;
  Clusterer session(dataset.points,
                    Options()
                        .with_backend(IndexKind::kPointBvh)
                        .with_early_exit(true));
  const ClusterResult& first = session.run(eps, 20);
  // Capped counts: nothing exceeds the cap by more than a traversal step
  // allows, and core flags are still exact.
  const ClusterResult fresh20 =
      cluster(dataset.points, eps, 20, IndexKind::kPointBvh);
  expect_identical_clustering(dataset.points,
                              Params{eps, 20, IndexKind::kPointBvh}, first,
                              fresh20, "early-exit first run");
  // Smaller min_pts is decidable from counts capped at 19 -> reuse.
  const ClusterResult& smaller = session.run(eps, 10);
  EXPECT_TRUE(smaller.stats.counts_reused);
  const ClusterResult fresh10 =
      cluster(dataset.points, eps, 10, IndexKind::kPointBvh);
  expect_identical_clustering(dataset.points,
                              Params{eps, 10, IndexKind::kPointBvh}, smaller,
                              fresh10, "early-exit smaller minPts");
  // Larger min_pts is NOT decidable from capped counts -> recompute.
  const ClusterResult& larger = session.run(eps, 40);
  EXPECT_FALSE(larger.stats.counts_reused);
  const ClusterResult fresh40 =
      cluster(dataset.points, eps, 40, IndexKind::kPointBvh);
  expect_identical_clustering(dataset.points,
                              Params{eps, 40, IndexKind::kPointBvh}, larger,
                              fresh40, "early-exit larger minPts");

  // The RT backend ignores the early-exit hint (OptiX) and counts exactly,
  // so even a LARGER min_pts reuses its cache.
  Clusterer rt_session(dataset.points, Options()
                                           .with_backend(IndexKind::kBvhRt)
                                           .with_early_exit(true));
  (void)rt_session.run(eps, 20);
  const ClusterResult& rt_larger = rt_session.run(eps, 40);
  EXPECT_TRUE(rt_larger.stats.counts_reused);
  const ClusterResult rt_fresh =
      cluster(dataset.points, eps, 40, IndexKind::kBvhRt);
  expect_identical_clustering(dataset.points,
                              Params{eps, 40, IndexKind::kBvhRt}, rt_larger,
                              rt_fresh, "rt exact counts despite early_exit");
}

// ---------------------------------------------------------------------------
// Structured results: membership views, counts, stats.
// ---------------------------------------------------------------------------

TEST(Clusterer, MembershipViewsAgreeWithLabels) {
  const auto dataset = data::gaussian_blobs(2200, 4, 0.6f, 25.0f, 2, 65);
  Clusterer session(dataset.points);
  const ClusterResult& r = session.run(0.5f, 8);
  ASSERT_GT(r.cluster_count, 0u);
  ASSERT_EQ(r.member_starts.size(), r.cluster_count + 2);
  ASSERT_EQ(r.members.size(), r.labels.size());

  std::vector<bool> seen(r.labels.size(), false);
  for (std::int32_t c = 0; c < static_cast<std::int32_t>(r.cluster_count);
       ++c) {
    const auto members = r.members_of(c);
    EXPECT_EQ(members.size(), static_cast<std::size_t>(std::count(
                                  r.labels.begin(), r.labels.end(), c)));
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    for (const std::uint32_t i : members) {
      EXPECT_EQ(r.labels[i], c);
      seen[i] = true;
    }
  }
  const auto noise = r.noise();
  EXPECT_EQ(noise.size(), r.noise_count());
  EXPECT_TRUE(std::is_sorted(noise.begin(), noise.end()));
  for (const std::uint32_t i : noise) {
    EXPECT_EQ(r.labels[i], kNoise);
    seen[i] = true;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));

  // Out-of-range ids yield empty views, not UB.
  EXPECT_TRUE(r.members_of(-1).empty());
  EXPECT_TRUE(
      r.members_of(static_cast<std::int32_t>(r.cluster_count)).empty());
  EXPECT_EQ(r.core_count() + r.border_count() + r.noise_count(), r.size());
}

TEST(Clusterer, NeighborCountsAreExactWithoutEarlyExit) {
  const auto dataset = data::taxi_gps(900, 66);
  const float eps = 0.35f;
  Clusterer session(dataset.points);
  const ClusterResult& r = session.run(eps, 6);
  ASSERT_EQ(r.neighbor_counts.size(), dataset.size());
  const float eps2 = eps * eps;
  for (std::uint32_t i = 0; i < dataset.size(); i += 37) {
    std::uint32_t expected = 0;
    for (std::uint32_t j = 0; j < dataset.size(); ++j) {
      if (j != i &&
          geom::distance_squared(dataset.points[i], dataset.points[j]) <=
              eps2) {
        ++expected;
      }
    }
    EXPECT_EQ(r.neighbor_counts[i], expected) << i;
  }
}

TEST(Clusterer, AutoBackendIsResolvedReportedAndPinned) {
  const auto dataset = data::taxi_gps(3000, 67);
  Clusterer session(dataset.points);
  EXPECT_EQ(session.backend(), IndexKind::kAuto);  // not resolved yet
  EXPECT_EQ(session.current_eps(), std::nullopt);
  const ClusterResult& r = session.run(0.3f, 10);
  EXPECT_NE(r.stats.backend, IndexKind::kAuto);
  EXPECT_EQ(r.stats.backend, session.backend());
  EXPECT_EQ(session.current_eps(), 0.3f);
  const IndexKind pinned = session.backend();
  // The choice stays pinned across the sweep (comparable results).
  for (const ClusterResult& s : session.sweep(kSweepEps, 10)) {
    EXPECT_EQ(s.stats.backend, pinned);
  }
}

TEST(Clusterer, ResultCopiesAreIndependentSnapshots) {
  const auto dataset = data::taxi_gps(1200, 68);
  Clusterer session(dataset.points);
  const ClusterResult snapshot = session.run(0.3f, 5);  // deep copy
  const ClusterResult& second = session.run(0.6f, 5);
  EXPECT_EQ(snapshot.eps, 0.3f);
  EXPECT_EQ(second.eps, 0.6f);
  // The snapshot kept the first run's data even though the session's
  // internal result buffer was overwritten.
  const ClusterResult fresh = cluster(dataset.points, 0.3f, 5);
  expect_identical_clustering(dataset.points, Params{0.3f, 5}, snapshot,
                              fresh, "snapshot");
}

TEST(Clusterer, TakeResultRunTakeResultCycleYieldsIndependentResults) {
  // Regression: take_result() used to leave the session holding moved-from
  // buffers, so the NEXT run() could resize storage the taken result still
  // aliased conceptually — the cycle must produce two complete, fully
  // independent results.
  const auto dataset = data::taxi_gps(1100, 90);
  Clusterer session(dataset.points);
  (void)session.run(0.25f, 6);
  const ClusterResult first = session.take_result();
  ASSERT_EQ(first.labels.size(), dataset.size());
  ASSERT_EQ(first.members.size(), dataset.size());
  ASSERT_EQ(first.member_starts.size(), first.cluster_count + 2);
  EXPECT_EQ(first.eps, 0.25f);

  (void)session.run(0.5f, 6);
  const ClusterResult second = session.take_result();
  ASSERT_EQ(second.labels.size(), dataset.size());
  ASSERT_EQ(second.members.size(), dataset.size());
  ASSERT_EQ(second.member_starts.size(), second.cluster_count + 2);
  EXPECT_EQ(second.eps, 0.5f);

  // Both match their own fresh oracle — the second run did not recycle the
  // first result's (taken) storage into a partial result.
  expect_identical_clustering(dataset.points, Params{0.25f, 6}, first,
                              cluster(dataset.points, 0.25f, 6),
                              "taken first");
  expect_identical_clustering(dataset.points, Params{0.5f, 6}, second,
                              cluster(dataset.points, 0.5f, 6),
                              "taken second");

  // A stray second take without an intervening run: well-formed empty, not
  // moved-from remains with stale scalars.
  const ClusterResult stray = session.take_result();
  EXPECT_TRUE(stray.labels.empty());
  EXPECT_TRUE(stray.members.empty());
  EXPECT_EQ(stray.cluster_count, 0u);
  EXPECT_EQ(stray.eps, 0.0f);

  // And the session is still fully usable afterwards.
  const ClusterResult& again = session.run(0.25f, 6);
  expect_identical_clustering(dataset.points, Params{0.25f, 6}, again,
                              cluster(dataset.points, 0.25f, 6),
                              "run after takes");
}

TEST(ClustererSweep, DuplicateLadderValuesShareColumnsAndMatch) {
  // Duplicates are legal: each occurrence yields its own entry, in input
  // order, identical to a fresh run (internally they share ONE bucketing
  // column — this asserts the column mapping, not just the dedup).
  const auto dataset = data::taxi_gps(1000, 91);
  const std::vector<float> ladder = {0.3f, 0.45f, 0.3f, 0.2f, 0.45f};
  const std::uint32_t min_pts = 6;
  Clusterer session(dataset.points);
  const auto curve = session.sweep(ladder, min_pts);
  ASSERT_EQ(curve.size(), ladder.size());
  for (std::size_t s = 0; s < curve.size(); ++s) {
    EXPECT_EQ(curve[s].eps, ladder[s]);
    const ClusterResult fresh = cluster(dataset.points, ladder[s], min_pts);
    expect_identical_clustering(dataset.points, Params{ladder[s], min_pts},
                                curve[s], fresh, "duplicate ladder entry");
  }
  // Duplicate entries are bit-identical to each other (same column).
  EXPECT_EQ(curve[0].neighbor_counts, curve[2].neighbor_counts);
  EXPECT_EQ(curve[1].neighbor_counts, curve[4].neighbor_counts);
}

TEST(ClustererSweep, RejectsNonFiniteAndNonPositiveLadderValues) {
  // A NaN in the ladder must fail up front — NEVER drive max(eps_values)
  // (NaN poisons max_element) or size the bucketing scratch.
  const auto pts = testutil::two_squares_and_outlier();
  Clusterer session(pts);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_THROW((void)session.sweep(std::vector<float>{0.3f, nan, 0.5f}, 3),
               std::invalid_argument);
  EXPECT_THROW((void)session.sweep(std::vector<float>{0.3f, inf}, 3),
               std::invalid_argument);
  EXPECT_THROW((void)session.sweep(std::vector<float>{0.3f, 0.0f}, 3),
               std::invalid_argument);
  EXPECT_THROW((void)session.sweep(std::vector<float>{-0.3f}, 3),
               std::invalid_argument);
  EXPECT_THROW((void)session.sweep(std::vector<float>{0.3f}, 0),
               std::invalid_argument);
  // Validation happened before any state was touched: no index was built.
  EXPECT_EQ(session.current_eps(), std::nullopt);
  // An empty ladder is a no-op, not an error.
  EXPECT_TRUE(session.sweep(std::vector<float>{}, 3).empty());
}

// ---------------------------------------------------------------------------
// Passthrough queries: neighbors, k-dist, kNN.
// ---------------------------------------------------------------------------

TEST(Clusterer, QueryNeighborsMatchesBruteOracle) {
  const auto dataset = data::taxi_gps(1500, 69);
  Clusterer session(dataset.points,
                    Options().with_backend(IndexKind::kBvhRt));
  for (const float eps : {0.2f, 0.45f}) {  // second value forces a refit
    for (const std::uint32_t q : {0u, 700u, 1499u}) {
      const float eps2 = eps * eps;
      std::vector<std::uint32_t> expected;
      for (std::uint32_t j = 0; j < dataset.size(); ++j) {
        if (j != q &&
            geom::distance_squared(dataset.points[q], dataset.points[j]) <=
                eps2) {
          expected.push_back(j);
        }
      }
      EXPECT_EQ(session.query_neighbors(q, eps), expected) << q;
      // Center-based form includes q itself (off-dataset semantics).
      auto with_self = expected;
      with_self.push_back(q);
      std::sort(with_self.begin(), with_self.end());
      EXPECT_EQ(session.query_neighbors(dataset.points[q], eps), with_self);
    }
  }
  // The passthrough retargeted the index; clustering still works after.
  const ClusterResult& r = session.run(0.3f, 10);
  const ClusterResult fresh =
      cluster(dataset.points, 0.3f, 10, IndexKind::kBvhRt);
  expect_identical_clustering(dataset.points,
                              Params{0.3f, 10, IndexKind::kBvhRt}, r, fresh,
                              "after query_neighbors");
}

TEST(Clusterer, KdistAndKnnPassthrough) {
  const auto dataset = data::taxi_gps(800, 70);
  Clusterer session(dataset.points);
  const auto kd = session.kdist(4);
  const auto direct = core::kdist_graph(dataset.points, 4);
  EXPECT_EQ(kd.k, direct.k);
  EXPECT_EQ(kd.sorted_kdist, direct.sorted_kdist);
  EXPECT_EQ(kd.suggested_eps, direct.suggested_eps);
  EXPECT_GT(session.suggest_eps(4), 0.0f);
  // k = 0: the classic 2 * dims default (taxi data is flat -> 4).
  EXPECT_EQ(session.kdist().k, 4u);

  const auto nn = session.knn(3);
  EXPECT_EQ(nn.k, 3u);
  EXPECT_EQ(nn.indices.size(), dataset.size() * 3);
}

// ---------------------------------------------------------------------------
// Triangle (§VI-C) sessions: the kTriangles backend through the one
// session path.
// ---------------------------------------------------------------------------

const Options kTriangleSession = Options().with_backend(IndexKind::kTriangles);

TEST(ClustererTriangle, SweepMatchesOneShotAndRefits) {
  const auto pts = data::taxi_gps(600, 71).points;
  const std::uint32_t min_pts = 5;
  Clusterer session(pts, kTriangleSession);
  const std::vector<float> eps_values = {0.25f, 0.35f, 0.5f};
  const auto curve = session.sweep(eps_values, min_pts);
  for (std::size_t s = 0; s < curve.size(); ++s) {
    const ClusterResult& r = curve[s];
    EXPECT_EQ(r.stats.backend, IndexKind::kTriangles);
    // Entry 0 builds the scene; every later step rescales and refits it.
    EXPECT_EQ(r.stats.index_rebuilt, s == 0);
    if (s > 0) {
      EXPECT_TRUE(r.stats.index_refitted) << s;
    }
    const auto oracle = core::rt_dbscan(
        pts, Params{eps_values[s], min_pts, IndexKind::kTriangles});
    EXPECT_EQ(r.labels, oracle.clustering.labels);
    EXPECT_EQ(r.is_core, oracle.clustering.is_core);
    EXPECT_EQ(r.cluster_count, oracle.clustering.cluster_count);
  }
  // The accessor reports the resolved backend, not kAuto.
  EXPECT_EQ(session.backend(), IndexKind::kTriangles);
  // min_pts rerun reuses the cached counts.
  (void)session.run(0.5f, min_pts);
  const ClusterResult& rerun = session.run(0.5f, min_pts * 2);
  EXPECT_TRUE(rerun.stats.counts_reused);
}

TEST(ClustererTriangle, EpsSweepRefitsInPlace) {
  // Each new ε rescales the tessellation and REFITS — results must match a
  // from-scratch run at every ε, on both layouts.  One thread: border
  // points claimed by two clusters go to whichever claim lands first, so
  // exact labels only repeat on a serial run.
  const auto dataset = data::taxi_gps(600, 94);
  for (const rt::TraversalWidth width :
       {rt::TraversalWidth::kBinary, rt::TraversalWidth::kWide}) {
    Clusterer session(dataset.points, Options(kTriangleSession)
                                          .with_triangle_subdivisions(0)
                                          .with_threads(1)
                                          .with_width(width));
    (void)session.run(0.2f, 5);
    for (const float eps : {0.45f, 0.15f, 0.3f}) {
      const Params params{eps, 5};
      const ClusterResult& swept = session.run(eps, params.min_pts);
      EXPECT_TRUE(swept.stats.index_refitted) << eps;
      EXPECT_FALSE(swept.stats.index_rebuilt) << eps;
      EXPECT_FALSE(swept.stats.counts_reused) << eps;
      EXPECT_EQ(swept.stats.width, width);
      testutil::expect_matches_reference(dataset.points, params,
                                         swept.to_clustering(),
                                         "triangle session eps sweep");
      core::RtDbscanOptions opts;
      opts.triangle_subdivisions = 0;
      opts.device.threads = 1;
      opts.device.build.width = width;
      const auto oneshot = core::rt_dbscan(
          dataset.points, Params{eps, 5, IndexKind::kTriangles}, opts);
      EXPECT_EQ(swept.labels, oneshot.clustering.labels)
          << rt::to_string(width) << " eps=" << eps;
      EXPECT_EQ(swept.neighbor_counts, oneshot.neighbor_counts)
          << rt::to_string(width) << " eps=" << eps;
    }
  }
}

TEST(ClustererTriangle, EmptyInputSweeps) {
  // An empty triangle session sweeps like every other, and an empty
  // triangle scene refits (rescaling nothing is a valid ε sweep).
  Clusterer session(std::vector<Vec3>{}, kTriangleSession);
  const auto curve = session.sweep(std::vector<float>{0.3f, 0.5f}, 3);
  ASSERT_EQ(curve.size(), 2u);
  for (const ClusterResult& r : curve) {
    EXPECT_EQ(r.size(), 0u);
    EXPECT_EQ(r.cluster_count, 0u);
  }
  const auto empty =
      index::make_index(std::span<const Vec3>{}, 0.3f, IndexKind::kTriangles);
  EXPECT_TRUE(empty->try_set_eps(0.5f));
  EXPECT_EQ(empty->build_eps(), 0.5f);
}

TEST(ClustererTriangle, MinPtsRerunReusesCachedCounts) {
  const auto dataset = data::taxi_gps(800, 93);
  const Params params{0.3f, 8};
  Clusterer session(dataset.points, kTriangleSession);
  EXPECT_FALSE(session.counts_cached());
  const ClusterResult first = session.run(params.eps, params.min_pts);
  EXPECT_TRUE(session.counts_cached());
  EXPECT_GT(first.stats.phase1.work.anyhit_calls, 0u);
  const auto oneshot = core::rt_dbscan(
      dataset.points, Params{params.eps, params.min_pts,
                             IndexKind::kTriangles});
  EXPECT_EQ(first.neighbor_counts, oneshot.neighbor_counts);
  EXPECT_EQ(first.is_core, oneshot.clustering.is_core);
  // A minPts rerun skips phase 1 entirely.
  const ClusterResult& second = session.run(params.eps, 2 * params.min_pts);
  EXPECT_TRUE(second.stats.counts_reused);
  EXPECT_EQ(second.stats.phase1.work.rays, 0u);
  testutil::expect_matches_reference(dataset.points,
                                     {params.eps, 2 * params.min_pts},
                                     second.to_clustering(),
                                     "triangle-session-rerun");
}

// ---------------------------------------------------------------------------
// Validation and edge cases.
// ---------------------------------------------------------------------------

TEST(Clusterer, RejectsInvalidArguments) {
  const auto pts = testutil::two_squares_and_outlier();
  Clusterer session(pts);
  EXPECT_THROW((void)session.run(0.0f, 3), std::invalid_argument);
  EXPECT_THROW((void)session.run(-1.0f, 3), std::invalid_argument);
  EXPECT_THROW((void)session.run(1.5f, 0), std::invalid_argument);
  // NaN/inf radii must fail loudly, not build a degenerate index.
  EXPECT_THROW((void)session.run(std::numeric_limits<float>::quiet_NaN(), 3),
               std::invalid_argument);
  EXPECT_THROW((void)session.run(std::numeric_limits<float>::infinity(), 3),
               std::invalid_argument);
  EXPECT_THROW((void)session.query_neighbors(Vec3{0, 0, 0}, 0.0f),
               std::invalid_argument);
  EXPECT_THROW((void)session.query_neighbors(999u, 1.0f),
               std::invalid_argument);
  // A non-finite CENTER is rejected too — and BEFORE the index is touched,
  // so a garbage request can never retarget the session to a degenerate ε.
  const Vec3 bad_center{std::numeric_limits<float>::quiet_NaN(), 0, 0};
  EXPECT_THROW((void)session.query_neighbors(bad_center, 0.5f),
               std::invalid_argument);
  EXPECT_THROW(
      (void)session.query_neighbors(Vec3{0, 0, 0},
                                    std::numeric_limits<float>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_EQ(session.current_eps(), std::nullopt);  // index never built
  // A negative icosphere subdivision level is rejected up front.
  EXPECT_THROW(
      Clusterer(pts, Options(kTriangleSession).with_triangle_subdivisions(-1)),
      std::invalid_argument);
  // Non-finite coordinates fail at construction.
  std::vector<Vec3> bad = pts;
  bad.push_back(Vec3{0.0f, std::numeric_limits<float>::quiet_NaN(), 0.0f});
  EXPECT_THROW(Clusterer{bad}, std::invalid_argument);
}

TEST(Clusterer, EmptyDataset) {
  Clusterer session((std::vector<Vec3>()));
  const ClusterResult& r = session.run(1.0f, 3);
  EXPECT_TRUE(r.labels.empty());
  EXPECT_TRUE(r.is_core.empty());
  EXPECT_EQ(r.cluster_count, 0u);
  EXPECT_TRUE(r.noise().empty());
  EXPECT_TRUE(r.members_of(0).empty());
  EXPECT_TRUE(session.sweep(kSweepEps, 3).size() == kSweepEps.size());
  EXPECT_TRUE(session.query_neighbors(Vec3{0, 0, 0}, 1.0f).empty());
}

TEST(Clusterer, OneShotWrapperStillWorksForEveryBackend) {
  // The legacy entry point is now a thin wrapper over a throwaway session;
  // its contract (tests/test_api.cpp) and backends must keep working.
  const auto dataset = data::two_rings(2000, 72);
  const Params params{0.8f, 5};
  for (const IndexKind kind : index::kAllIndexKinds) {
    const ClusterResult r =
        cluster(dataset.points, params.eps, params.min_pts, kind);
    testutil::expect_matches_reference(dataset.points, params,
                                       r.to_clustering(), "wrapper");
    EXPECT_EQ(r.stats.backend, kind);
    EXPECT_TRUE(r.stats.index_rebuilt);
  }
}

}  // namespace
}  // namespace rtd
