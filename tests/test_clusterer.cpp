// Session API suite: rtd::Clusterer must produce clusterings identical to
// fresh one-shot rtd::cluster() runs at every eps (for every backend and
// traversal layout) while REUSING its index — refit, not rebuild, on the
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
#include "index/point_tree.hpp"

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
      // Entry 0 carries the one index build (at ε_max) and the one fused
      // launch; later entries only finalize their level — an ascending
      // ladder ends at ε_max, so nothing after entry 0 refits or rebuilds.
      // As after run(), phase2 holds only the second walks of packets
      // whose pairs overflowed the launch's buffer (none here), and no
      // separate cluster-formation time.
      if (s == 0) {
        EXPECT_TRUE(r.stats.index_rebuilt) << index::to_string(kind);
        EXPECT_FALSE(r.stats.counts_reused) << index::to_string(kind);
        EXPECT_EQ(r.stats.phase1.work.rays, dataset.size())
            << index::to_string(kind);
        EXPECT_EQ(r.stats.phase2.work.rays, 0u) << index::to_string(kind);
        EXPECT_EQ(r.stats.phase2.seconds, 0.0) << index::to_string(kind);
        EXPECT_EQ(r.stats.timings.cluster_phase_seconds, 0.0);
      } else {
        EXPECT_FALSE(r.stats.index_rebuilt)
            << index::to_string(kind) << " step " << s;
        EXPECT_FALSE(r.stats.index_refitted)
            << index::to_string(kind) << " step " << s;
        EXPECT_TRUE(r.stats.counts_reused)
            << index::to_string(kind) << " step " << s;
        EXPECT_EQ(r.stats.phase1.work.rays, 0u);  // shared pass, not rerun
        EXPECT_EQ(r.stats.phase2.work.rays, 0u);  // likewise
      }
      const ClusterResult fresh =
          cluster(dataset.points, kSweepEps[s], min_pts, kind);
      expect_identical_clustering(dataset.points,
                                  Params{kSweepEps[s], min_pts, kind}, r,
                                  fresh, index::to_string(kind));
    }
    EXPECT_EQ(session.current_eps(), kSweepEps.back());
    // Descending re-sweep on the same session: same ε_max, so not even
    // entry 0 rebuilds this time, and parity is order-independent.  The
    // index ends where a run() at the last ε leaves it: one refit, on the
    // last entry, where the backend refits; the rebuild-only backends stay
    // at the ε_max build.
    std::vector<float> descending(kSweepEps.rbegin(), kSweepEps.rend());
    const auto down = session.sweep(descending, min_pts);
    EXPECT_EQ(session.current_eps(),
              refittable ? descending.back() : descending.front());
    for (std::size_t s = 0; s < down.size(); ++s) {
      EXPECT_FALSE(down[s].stats.index_rebuilt)
          << index::to_string(kind) << " re-sweep step " << s;
      EXPECT_EQ(down[s].stats.index_refitted,
                refittable && s + 1 == down.size())
          << index::to_string(kind) << " re-sweep step " << s;
      const ClusterResult fresh =
          cluster(dataset.points, descending[s], min_pts, kind);
      expect_identical_clustering(dataset.points,
                                  Params{descending[s], min_pts, kind},
                                  down[s], fresh, index::to_string(kind));
    }
  }
}

TEST(ClustererSweep, MatchesOneShotOnBothTreeLayouts) {
  // kBvhRt always walks the wide layout; kPointBvh walks its binary tree
  // at 3000 points and its wide layout at 6000.
  static_assert(3000 < index::PointTree::kWideMinPoints &&
                6000 >= index::PointTree::kWideMinPoints);
  const std::uint32_t min_pts = 10;
  for (const std::size_t n : {3000u, 6000u}) {
    const auto dataset = data::taxi_gps(n, 62);
    for (const IndexKind kind : {IndexKind::kPointBvh, IndexKind::kBvhRt}) {
      Clusterer session(dataset.points, Options().with_backend(kind));
      const auto curve = session.sweep(kSweepEps, min_pts);
      for (std::size_t s = 0; s < curve.size(); ++s) {
        // One build at ε_max; the ascending ladder refits nothing.
        EXPECT_EQ(curve[s].stats.index_rebuilt, s == 0);
        EXPECT_FALSE(curve[s].stats.index_refitted);
        const ClusterResult fresh =
            cluster(dataset.points, kSweepEps[s], min_pts, kind);
        expect_identical_clustering(
            dataset.points, Params{kSweepEps[s], min_pts, kind}, curve[s],
            fresh, index::to_string(kind));
      }
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

// ---------------------------------------------------------------------------
// Structured results: membership views, counts, stats.
// ---------------------------------------------------------------------------

TEST(Clusterer, MembershipViewsAgreeWithLabels) {
  const auto dataset = data::gaussian_blobs(2200, 4, 0.6f, 25.0f, 2, 65);
  Clusterer session(dataset.points);
  const ClusterResult& r = session.run(0.5f, 8);
  ASSERT_GT(r.cluster_count, 0u);
  ASSERT_EQ(r.membership.cluster_count(), r.cluster_count);
  ASSERT_EQ(r.membership.slot_count(), r.labels.size());

  // Each group is exactly the set of slots carrying its label (the order
  // within a group is unspecified).
  const auto slots_labeled = [&](std::int32_t label) {
    std::vector<std::uint32_t> out;
    for (std::uint32_t i = 0; i < r.labels.size(); ++i) {
      if (r.labels[i] == label) out.push_back(i);
    }
    return out;
  };
  const auto sorted = [](std::span<const std::uint32_t> group) {
    std::vector<std::uint32_t> out(group.begin(), group.end());
    std::sort(out.begin(), out.end());
    return out;
  };
  for (std::int32_t c = 0; c < static_cast<std::int32_t>(r.cluster_count);
       ++c) {
    EXPECT_EQ(sorted(r.members_of(c)), slots_labeled(c)) << "cluster " << c;
  }
  EXPECT_EQ(sorted(r.noise()), slots_labeled(kNoise));
  EXPECT_EQ(r.noise().size(), r.noise_count());

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

TEST(Clusterer, OneShotCountsAreExactAndItsSessionStreams) {
  // rtd::cluster() is one run() of a default borrowing session, so its
  // counts are exact on every backend (a traversal that could stop at
  // min_pts does not), and the same session maintains its result.
  const auto dataset = data::single_blob(1500, 0.5f, 69);
  const float eps = 0.3f;
  const std::uint32_t min_pts = 8;
  const ClusterResult one_shot =
      cluster(dataset.points, eps, min_pts, IndexKind::kPointBvh);
  ASSERT_EQ(one_shot.neighbor_counts.size(), dataset.size());
  const float eps2 = eps * eps;
  std::size_t above_cap = 0;
  for (std::uint32_t i = 0; i < dataset.size(); ++i) {
    std::uint32_t expected = 0;
    for (std::uint32_t j = 0; j < dataset.size(); ++j) {
      expected += j != i && geom::distance_squared(dataset.points[i],
                                                   dataset.points[j]) <= eps2;
    }
    EXPECT_EQ(one_shot.neighbor_counts[i], expected) << i;
    above_cap += expected > min_pts - 1;
  }
  EXPECT_GT(above_cap, 0u);  // a min_pts - 1 cap would show

  Clusterer session = Clusterer::borrowing(
      dataset.points, Options().with_backend(IndexKind::kPointBvh));
  (void)session.run(eps, min_pts);
  const std::vector<Vec3> extra = {{0.1f, 0.1f, 0.0f}, {9.0f, 9.0f, 0.0f}};
  EXPECT_EQ(session.insert(extra), dataset.size());
  EXPECT_TRUE(session.validate(ValidationLevel::kDeep).ok);
}

TEST(Clusterer, AutoBackendIsResolvedReportedAndPinned) {
  const auto dataset = data::taxi_gps(3000, 67);
  Clusterer session(dataset.points);
  // kAuto is the RT pipeline, fixed before any index exists.
  EXPECT_EQ(session.backend(), IndexKind::kBvhRt);
  EXPECT_EQ(session.current_eps(), std::nullopt);
  const ClusterResult& r = session.run(0.3f, 10);
  EXPECT_EQ(r.stats.backend, IndexKind::kBvhRt);
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
  ASSERT_EQ(first.membership.slot_count(), dataset.size());
  ASSERT_EQ(first.membership.cluster_count(), first.cluster_count);
  EXPECT_EQ(first.eps, 0.25f);

  (void)session.run(0.5f, 6);
  const ClusterResult second = session.take_result();
  ASSERT_EQ(second.labels.size(), dataset.size());
  ASSERT_EQ(second.membership.slot_count(), dataset.size());
  ASSERT_EQ(second.membership.cluster_count(), second.cluster_count);
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
  EXPECT_EQ(stray.membership.slot_count(), 0u);
  EXPECT_TRUE(stray.noise().empty());
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

TEST(LadderSweep, UnsortedLadderWithDuplicatesMatchesOnEveryBackend) {
  // Nine values, unsorted, with duplicates: the levels are the distinct
  // values sorted descending, and every entry still comes back in input
  // order, identical to a fresh run at its ε — on every backend, serial
  // and on four threads.
  const auto dataset = data::taxi_gps(1500, 95);
  const std::vector<float> ladder = {0.3f,  0.12f, 0.45f, 0.3f, 0.2f,
                                     0.6f, 0.12f, 0.38f, 0.25f};
  const std::uint32_t min_pts = 6;
  for (const IndexKind kind : index::kAllIndexKinds) {
    for (const int threads : {1, 4}) {
      Clusterer session(dataset.points,
                        Options().with_backend(kind).with_threads(threads));
      const auto curve = session.sweep(ladder, min_pts);
      ASSERT_EQ(curve.size(), ladder.size());
      for (std::size_t s = 0; s < curve.size(); ++s) {
        EXPECT_EQ(curve[s].eps, ladder[s]);
        const ClusterResult fresh =
            cluster(dataset.points, ladder[s], min_pts, kind);
        expect_identical_clustering(dataset.points,
                                    Params{ladder[s], min_pts, kind},
                                    curve[s], fresh, index::to_string(kind));
      }
      EXPECT_EQ(curve[0].neighbor_counts, curve[3].neighbor_counts);
      EXPECT_EQ(curve[1].neighbor_counts, curve[6].neighbor_counts);
    }
  }
}

TEST(LadderSweep, FourThreadLaddersMatchFreshRuns) {
  // Four threads race for the border claims of every level at once; each
  // level must still be a valid clustering identical (in the DBSCAN
  // sense) to a fresh run, for ascending, descending and unsorted ladders.
  const auto dataset = data::taxi_gps(6000, 97);
  const std::uint32_t min_pts = 10;
  const std::vector<std::vector<float>> ladders = {
      {0.18f, 0.28f, 0.4f, 0.55f},
      {0.55f, 0.4f, 0.28f, 0.18f},
      {0.28f, 0.55f, 0.18f, 0.28f, 0.4f}};
  for (const IndexKind kind : {IndexKind::kBvhRt, IndexKind::kPointBvh}) {
    Clusterer session(dataset.points,
                      Options().with_backend(kind).with_threads(4));
    for (const auto& ladder : ladders) {
      const auto curve = session.sweep(ladder, min_pts);
      ASSERT_EQ(curve.size(), ladder.size());
      for (std::size_t s = 0; s < curve.size(); ++s) {
        const ClusterResult fresh =
            cluster(dataset.points, ladder[s], min_pts, kind);
        expect_identical_clustering(dataset.points,
                                    Params{ladder[s], min_pts, kind},
                                    curve[s], fresh, index::to_string(kind));
      }
      // The session result is the last entry.
      EXPECT_EQ(session.result().eps, ladder.back());
      EXPECT_EQ(session.result().labels, curve.back().labels);
    }
  }
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

TEST(Clusterer, KdistDefaultKJudgesFlatnessOnLivePoints) {
  // A flat session that inserted and then removed one off-plane point is
  // flat again: its tombstone must not make k = 0 pick the 3-D default.
  const auto dataset = data::taxi_gps(400, 72);
  Clusterer session(dataset.points);
  (void)session.run(0.3f, 5);
  const std::vector<Vec3> off_plane{{0.5f, 0.5f, 3.0f}};
  const std::size_t id = session.insert(off_plane);
  EXPECT_EQ(session.kdist().k, 6u);
  const std::vector<std::uint32_t> ids{static_cast<std::uint32_t>(id)};
  session.remove(ids);
  const auto kd = session.kdist();
  EXPECT_EQ(kd.k, 4u);
  EXPECT_EQ(kd.sorted_kdist, core::kdist_graph(dataset.points, 4).sorted_kdist);
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
  const std::vector<float> descending(eps_values.rbegin(), eps_values.rend());
  for (const bool first : {true, false}) {
    const std::vector<float>& ladder = first ? eps_values : descending;
    const auto curve = session.sweep(ladder, min_pts);
    for (std::size_t s = 0; s < curve.size(); ++s) {
      const ClusterResult& r = curve[s];
      EXPECT_EQ(r.stats.backend, IndexKind::kTriangles);
      // The first sweep builds the scene at ε_max on entry 0; an ascending
      // ladder then refits nothing.  The descending re-sweep rescales and
      // refits the scene once, to its last ε, after the ladder committed.
      EXPECT_EQ(r.stats.index_rebuilt, first && s == 0) << s;
      EXPECT_EQ(r.stats.index_refitted, !first && s + 1 == curve.size())
          << s;
      const auto oracle = core::rt_dbscan(
          pts, Params{ladder[s], min_pts, IndexKind::kTriangles});
      EXPECT_EQ(r.labels, oracle.clustering.labels);
      EXPECT_EQ(r.is_core, oracle.clustering.is_core);
      EXPECT_EQ(r.cluster_count, oracle.clustering.cluster_count);
    }
  }
  EXPECT_EQ(session.current_eps(), descending.back());
  // The accessor reports the resolved backend, not kAuto.
  EXPECT_EQ(session.backend(), IndexKind::kTriangles);
  // min_pts rerun reuses the cached counts.
  (void)session.run(0.5f, min_pts);
  const ClusterResult& rerun = session.run(0.5f, min_pts * 2);
  EXPECT_TRUE(rerun.stats.counts_reused);
}

TEST(ClustererTriangle, EpsSweepRefitsInPlace) {
  // Each new ε rescales the tessellation and REFITS — results must match a
  // from-scratch run at every ε: the same counts and core flags, and the
  // same label on every core point (labels are numbered by each cluster's
  // first core slot).  Border points within ε of two clusters may differ:
  // run() claims them in its fused launch, rt_dbscan in its phase-2
  // launch.
  const auto dataset = data::taxi_gps(600, 94);
  Clusterer session(dataset.points, Options(kTriangleSession)
                                        .with_triangle_subdivisions(0)
                                        .with_threads(1));
  (void)session.run(0.2f, 5);
  for (const float eps : {0.45f, 0.15f, 0.3f}) {
    const Params params{eps, 5};
    const ClusterResult& swept = session.run(eps, params.min_pts);
    EXPECT_TRUE(swept.stats.index_refitted) << eps;
    EXPECT_FALSE(swept.stats.index_rebuilt) << eps;
    EXPECT_FALSE(swept.stats.counts_reused) << eps;
    testutil::expect_matches_reference(dataset.points, params,
                                       swept.to_clustering(),
                                       "triangle session eps sweep");
    core::RtDbscanOptions opts;
    opts.triangle_subdivisions = 0;
    opts.threads = 1;
    const auto oneshot = core::rt_dbscan(
        dataset.points, Params{eps, 5, IndexKind::kTriangles}, opts);
    EXPECT_EQ(swept.neighbor_counts, oneshot.neighbor_counts)
        << "eps=" << eps;
    ASSERT_EQ(swept.is_core, oneshot.clustering.is_core) << "eps=" << eps;
    for (std::size_t i = 0; i < swept.labels.size(); ++i) {
      if (!swept.is_core[i]) continue;
      EXPECT_EQ(swept.labels[i], oneshot.clustering.labels[i])
          << "eps=" << eps << " core " << i;
    }
    const auto eq = dbscan::check_equivalent(
        dataset.points, params, oneshot.clustering, swept.to_clustering());
    EXPECT_TRUE(eq.equivalent) << "eps=" << eps << ": " << eq.reason;
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
