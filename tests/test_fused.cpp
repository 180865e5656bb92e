// The fused count-and-cluster launch behind Clusterer::run() and
// Clusterer::sweep() (dbscan::index_count_cluster): parity with a
// sequential reference on every backend and thread count, every ladder
// level against a one-level run at its ε, its work accounting, and the
// settle protocol of its packets driven step by step.
//
// The suites are named FusedParity / FusedLadder / FusedProtocol so they
// can be run alone: repeated in a Release build and under ThreadSanitizer
// (CI), where their four-thread launches race the settle protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/clusterer.hpp"
#include "data/generators.hpp"
#include "dbscan/engine.hpp"
#include "dbscan_test_util.hpp"
#include "dsu/atomic_disjoint_set.hpp"
#include "index/neighbor_index.hpp"

namespace rtd {
namespace {

using dbscan::Clustering;
using dbscan::Params;
using geom::Vec3;
using index::IndexKind;
using index::kAllIndexKinds;

/// Neighbor counts (excluding self) of `points` at ε, by brute force.
std::vector<std::uint32_t> reference_counts(std::span<const Vec3> points,
                                            float eps) {
  const float eps2 = eps * eps;
  std::vector<std::uint32_t> counts(points.size(), 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      if (geom::distance_squared(points[i], points[j]) <= eps2) {
        ++counts[i];
        ++counts[j];
      }
    }
  }
  return counts;
}

/// The session's result restricted to its live slots must equal the
/// sequential reference over the live points: the same counts and core
/// flags, and an equivalent clustering (borders may legally differ).
void expect_matches_sequential(const Clusterer& session,
                               const ClusterResult& r,
                               const std::string& what) {
  std::vector<Vec3> live;
  Clustering got;
  std::vector<std::uint32_t> counts;
  const std::span<const Vec3> pts = session.points();
  ASSERT_EQ(r.labels.size(), pts.size()) << what;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    if (!session.is_live(i)) {
      EXPECT_EQ(r.neighbor_counts[i], 0u) << what << ": dead slot " << i;
      EXPECT_EQ(r.is_core[i], 0) << what << ": dead slot " << i;
      continue;
    }
    live.push_back(pts[i]);
    got.labels.push_back(r.labels[i]);
    got.is_core.push_back(r.is_core[i]);
    counts.push_back(r.neighbor_counts[i]);
  }
  got.cluster_count = r.cluster_count;
  const Params params{r.eps, r.min_pts};
  const Clustering reference = dbscan::sequential_dbscan(live, params);
  EXPECT_EQ(counts, reference_counts(live, r.eps)) << what;
  EXPECT_EQ(got.is_core, reference.is_core) << what;
  const auto eq = dbscan::check_equivalent(live, params, reference, got);
  EXPECT_TRUE(eq.equivalent) << what << ": " << eq.reason;
}

Options session_options(IndexKind kind, int threads) {
  return Options().with_backend(kind).with_threads(threads);
}

std::string label(IndexKind kind, int threads) {
  return std::string(index::to_string(kind)) + " threads=" +
         std::to_string(threads);
}

constexpr std::array<int, 3> kThreadCounts = {1, 2, 4};

// ---------------------------------------------------------------------------
// FusedParity: run() through the fused launch against the sequential
// reference.
// ---------------------------------------------------------------------------

TEST(FusedParity, EveryBackendAtOneTwoAndFourThreads) {
  const auto dataset = data::taxi_gps(2500, 211);
  for (const IndexKind kind : kAllIndexKinds) {
    for (const int threads : kThreadCounts) {
      Clusterer session(dataset.points, session_options(kind, threads));
      for (const float eps : {0.3f, 0.2f, 0.45f}) {
        const ClusterResult& r = session.run(eps, 8);
        EXPECT_FALSE(r.stats.counts_reused);
        EXPECT_GT(r.stats.phase1.work.rays, 0u) << label(kind, threads);
        EXPECT_EQ(r.stats.timings.cluster_phase_seconds, 0.0);
        expect_matches_sequential(
            session, r, label(kind, threads) + " eps=" + std::to_string(eps));
      }
    }
  }
}

TEST(FusedParity, DuplicatesAndPairsExactlyAtEps) {
  // An integer lattice at spacing 1 with ε = 1: every lattice edge is a
  // pair at exactly ε (inclusive), and every site is stacked 1-3 deep, so
  // duplicates are neighbors of each other at distance 0.
  std::vector<Vec3> pts;
  Rng rng(212);
  for (int x = 0; x < 12; ++x) {
    for (int y = 0; y < 12; ++y) {
      if (rng.below(5) == 0) continue;  // holes: some sites are borders
      const std::uint64_t copies = 1 + rng.below(3);
      for (std::uint64_t c = 0; c < copies; ++c) {
        pts.push_back(Vec3::xy(static_cast<float>(x), static_cast<float>(y)));
      }
    }
  }
  for (const IndexKind kind : kAllIndexKinds) {
    for (const int threads : kThreadCounts) {
      Clusterer session(pts, session_options(kind, threads));
      for (const std::uint32_t min_pts : {4u, 7u, 11u}) {
        // A fresh ε per run, so every run goes through the fused launch.
        (void)session.run(0.5f, min_pts);
        const ClusterResult& r = session.run(1.0f, min_pts);
        EXPECT_FALSE(r.stats.counts_reused);
        expect_matches_sequential(session, r,
                                  label(kind, threads) + " minPts=" +
                                      std::to_string(min_pts));
      }
    }
  }
}

TEST(FusedParity, PacketsWhoseRaysAreNeighborsOfEachOther) {
  // Tight groups of 2-6 points, far apart, with ε wider than a group: each
  // group's points are Morton-adjacent, so most packets hold rays that are
  // each other's neighbors.  minPts 3-5 mixes core, border and noise
  // inside one packet.
  std::vector<Vec3> pts;
  Rng rng(213);
  for (int g = 0; g < 200; ++g) {
    const float cx = static_cast<float>(g % 20) * 5.0f;
    const float cy = static_cast<float>(g / 20) * 5.0f;
    const std::uint64_t size = 2 + rng.below(5);
    for (std::uint64_t k = 0; k < size; ++k) {
      pts.push_back(Vec3::xy(cx + rng.uniformf(0.0f, 0.6f),
                             cy + rng.uniformf(0.0f, 0.6f)));
    }
  }
  for (const IndexKind kind : kAllIndexKinds) {
    for (const int threads : kThreadCounts) {
      for (const std::uint32_t min_pts : {3u, 4u, 5u}) {
        Clusterer session(pts, session_options(kind, threads));
        const ClusterResult& r = session.run(0.7f, min_pts);
        expect_matches_sequential(session, r,
                                  label(kind, threads) + " minPts=" +
                                      std::to_string(min_pts));
      }
    }
  }
}

TEST(FusedParity, TombstonedSessionsAfterAdvance) {
  // advance() leaves tombstones: a small one is absorbed (the index masks
  // the dead ids), a large one crosses the rebuild threshold (the index is
  // rebuilt over the live set, CompactedIndex).  A run at a fresh ε then
  // launches over the live-only order.
  const auto base = data::taxi_gps(1500, 214);
  const auto extra = data::taxi_gps(600, 215);
  const std::span<const Vec3> add(extra.points);
  for (const IndexKind kind : kAllIndexKinds) {
    for (const int threads : kThreadCounts) {
      Clusterer session(base.points, session_options(kind, threads));
      (void)session.run(0.3f, 8);
      (void)session.advance(add.subspan(0, 40), 40);
      const ClusterResult& small = session.run(0.35f, 8);
      EXPECT_FALSE(small.stats.counts_reused);
      expect_matches_sequential(session, small,
                                label(kind, threads) + " absorbed");
      (void)session.advance(add.subspan(40, 400), 400);
      const ClusterResult& large = session.run(0.25f, 8);
      EXPECT_FALSE(large.stats.counts_reused);
      expect_matches_sequential(session, large,
                                label(kind, threads) + " rebuilt");
    }
  }
}

TEST(FusedParity, DeltaTailIdsAfterInsert) {
  // A small insert is absorbed into the tree backends' delta tail; the
  // next run at a fresh ε refits and queries tail ids alongside the tree.
  const auto base = data::taxi_gps(1500, 216);
  const auto extra = data::taxi_gps(120, 217);
  for (const IndexKind kind : kAllIndexKinds) {
    for (const int threads : kThreadCounts) {
      Clusterer session(base.points, session_options(kind, threads));
      (void)session.run(0.3f, 8);
      (void)session.insert(extra.points);
      const ClusterResult& r = session.run(0.4f, 8);
      EXPECT_FALSE(r.stats.counts_reused);
      expect_matches_sequential(session, r, label(kind, threads));
    }
  }
}

TEST(FusedParity, DenseBlobForcesTheOverflowRewalk) {
  // 900 points inside a ball far smaller than ε: every ray has ~900
  // neighbors, so each packet finds ~3,600 pairs — past the buffer — and
  // walks again to handle them.  A sparse halo adds borders and noise.
  std::vector<Vec3> pts;
  Rng rng(218);
  for (int k = 0; k < 900; ++k) {
    pts.push_back({rng.uniformf(0.0f, 0.1f), rng.uniformf(0.0f, 0.1f),
                   rng.uniformf(0.0f, 0.1f)});
  }
  for (int k = 0; k < 300; ++k) {
    pts.push_back({rng.uniformf(-3.0f, 3.0f), rng.uniformf(-3.0f, 3.0f),
                   rng.uniformf(-3.0f, 3.0f)});
  }
  for (const IndexKind kind : kAllIndexKinds) {
    for (const int threads : kThreadCounts) {
      Clusterer session(pts, session_options(kind, threads));
      const ClusterResult& r = session.run(0.5f, 6);
      EXPECT_GT(r.stats.phase2.work.rays, 0u) << label(kind, threads);
      EXPECT_EQ(r.stats.phase2.seconds, 0.0);
      expect_matches_sequential(session, r, label(kind, threads));
    }
  }
}

TEST(FusedParity, WalkWorkEqualsACountOnlyPhaseOne) {
  // The fused launch's one walk is phase 1's walk: on the same index and
  // order, the same counts and exactly the same work counters.
  const auto dataset = data::taxi_gps(3000, 219);
  const Params params{0.3f, 8};
  for (const IndexKind kind : kAllIndexKinds) {
    index::IndexBuildOptions build;
    build.threads = 1;
    const auto idx = index::make_index(dataset.points, params.eps, kind, build);
    const std::vector<std::uint32_t> order =
        dbscan::query_launch_order(dataset.points, true, 1);
    std::vector<std::uint32_t> counts;
    const rt::LaunchStats phase1 =
        dbscan::index_phase1(*idx, params, order, false, 1, counts);

    const std::size_t n = dataset.size();
    dsu::AtomicDisjointSet dsu(n);
    std::vector<std::atomic<std::uint8_t>> claimed(n);
    std::vector<std::atomic<std::uint8_t>> settled(n);
    std::vector<std::uint32_t> fused_counts;
    const dbscan::CountClusterStats fused = dbscan::index_count_cluster(
        *idx, params, order, 1, fused_counts, dsu, claimed, settled);
    const char* what = index::to_string(kind);
    EXPECT_EQ(fused_counts, counts) << what;
    EXPECT_EQ(fused.phase1.work.rays, phase1.work.rays) << what;
    EXPECT_EQ(fused.phase1.work.nodes_visited, phase1.work.nodes_visited)
        << what;
    EXPECT_EQ(fused.phase1.work.aabb_tests, phase1.work.aabb_tests) << what;
    EXPECT_EQ(fused.phase1.work.isect_calls, phase1.work.isect_calls)
        << what;
    EXPECT_EQ(fused.phase1.work.anyhit_calls, phase1.work.anyhit_calls)
        << what;
    EXPECT_EQ(fused.phase2.work.rays, 0u) << what;  // no packet overflowed
  }
}

TEST(FusedParity, MinPtsOnlyRerunStillReusesCounts) {
  const auto dataset = data::taxi_gps(2500, 220);
  for (const IndexKind kind : kAllIndexKinds) {
    Clusterer session(dataset.points, session_options(kind, 1));
    const ClusterResult& cold = session.run(0.3f, 5);
    EXPECT_FALSE(cold.stats.counts_reused);
    const std::uint64_t walked = cold.stats.phase1.work.rays;
    const ClusterResult& rerun = session.run(0.3f, 9);
    EXPECT_TRUE(rerun.stats.counts_reused) << index::to_string(kind);
    EXPECT_EQ(rerun.stats.phase1.work.rays, 0u) << index::to_string(kind);
    // Phase 2 alone, over the cores only.
    EXPECT_GT(rerun.stats.phase2.work.rays, 0u) << index::to_string(kind);
    EXPECT_LT(rerun.stats.phase2.work.rays, walked) << index::to_string(kind);
    expect_matches_sequential(session, rerun, index::to_string(kind));
  }
}

TEST(FusedParity, RejectsUndersizedWorkspace) {
  const auto dataset = data::taxi_gps(200, 221);
  const auto idx =
      index::make_index(dataset.points, 0.3f, IndexKind::kBruteForce);
  const std::vector<std::uint32_t> order =
      dbscan::query_launch_order(dataset.points, true, 1);
  dsu::AtomicDisjointSet dsu(dataset.size());
  std::vector<std::atomic<std::uint8_t>> claimed(dataset.size());
  std::vector<std::atomic<std::uint8_t>> settled(dataset.size() - 1);
  std::vector<std::uint32_t> counts;
  EXPECT_THROW((void)dbscan::index_count_cluster(*idx, Params{0.3f, 5}, order,
                                                 1, counts, dsu, claimed,
                                                 settled),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// FusedLadder: sweep() clusters its whole ladder in the same fused launch;
// every level must equal a one-level fused run() at its ε.
// ---------------------------------------------------------------------------

/// `r` restricted to the live slots of `session` (their points into
/// `live`, when given).
Clustering live_clustering(const Clusterer& session, const ClusterResult& r,
                           std::vector<Vec3>* live = nullptr) {
  Clustering out;
  const std::span<const Vec3> pts = session.points();
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    if (!session.is_live(i)) continue;
    if (live != nullptr) live->push_back(pts[i]);
    out.labels.push_back(r.labels[i]);
    out.is_core.push_back(r.is_core[i]);
  }
  out.cluster_count = r.cluster_count;
  return out;
}

/// Sweep `ladder` on `session`, then run() once at each distinct value —
/// each run counts afresh, through a one-level fused launch.  Every entry
/// must carry that run's counts and core flags exactly, and a clustering
/// equivalent to it (and to the sequential reference) over the live
/// points.  Returns the entries.
std::vector<ClusterResult> expect_sweep_matches_runs(
    Clusterer& session, const std::vector<float>& ladder,
    std::uint32_t min_pts, const std::string& what) {
  std::vector<ClusterResult> entries = session.sweep(ladder, min_pts);
  EXPECT_EQ(entries.size(), ladder.size()) << what;
  if (entries.size() != ladder.size()) return entries;
  // Entry 0 carries the one launch: every live point walked once.
  EXPECT_FALSE(entries[0].stats.counts_reused) << what;
  EXPECT_EQ(entries[0].stats.phase1.work.rays, session.live_count()) << what;
  EXPECT_EQ(entries[0].stats.phase2.seconds, 0.0) << what;
  EXPECT_EQ(entries[0].stats.timings.cluster_phase_seconds, 0.0) << what;
  for (std::size_t v = 1; v < entries.size(); ++v) {
    EXPECT_TRUE(entries[v].stats.counts_reused) << what;
    EXPECT_EQ(entries[v].stats.phase1.work.rays, 0u) << what;
    EXPECT_EQ(entries[v].stats.phase2.work.rays, 0u) << what;
  }

  // The distinct values, the session's cached ε (the last entry's) last,
  // so no run() reuses counts.
  std::vector<float> values = ladder;
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  values.erase(std::find(values.begin(), values.end(), ladder.back()));
  values.push_back(ladder.back());
  if (values.size() == 1) (void)session.run(0.5f * values[0], min_pts);
  for (const float eps : values) {
    const ClusterResult run = session.run(eps, min_pts);
    const std::string at = what + " eps=" + std::to_string(eps);
    EXPECT_FALSE(run.stats.counts_reused) << at;
    std::vector<Vec3> live;
    const Clustering want = live_clustering(session, run, &live);
    const Params params{eps, min_pts};
    bool checked_sequential = false;
    for (std::size_t v = 0; v < ladder.size(); ++v) {
      if (ladder[v] != eps) continue;
      const ClusterResult& e = entries[v];
      EXPECT_EQ(e.eps, eps) << at;
      EXPECT_EQ(e.neighbor_counts, run.neighbor_counts) << at;
      EXPECT_EQ(e.is_core, run.is_core) << at;
      EXPECT_EQ(e.cluster_count, run.cluster_count) << at;
      const auto eq = dbscan::check_equivalent(live, params, want,
                                               live_clustering(session, e));
      EXPECT_TRUE(eq.equivalent) << at << ": " << eq.reason;
      if (!checked_sequential) {
        expect_matches_sequential(session, e, at);
        checked_sequential = true;
      }
    }
  }
  return entries;
}

TEST(FusedLadder, EveryBackendAtOneTwoAndFourThreads) {
  // An unsorted ladder with duplicates: its distinct values are the
  // levels, each entry comes back in input order.
  const auto dataset = data::taxi_gps(2500, 230);
  const std::vector<float> ladder = {0.3f, 0.2f, 0.45f, 0.2f, 0.12f, 0.45f};
  for (const IndexKind kind : kAllIndexKinds) {
    for (const int threads : kThreadCounts) {
      Clusterer session(dataset.points, session_options(kind, threads));
      (void)expect_sweep_matches_runs(session, ladder, 8,
                                      label(kind, threads));
    }
  }
}

TEST(FusedLadder, DuplicatesAndPairsExactlyAtEveryLevel) {
  // An integer lattice with every site stacked 1-3 deep and ladder values
  // 1, 2 and 3: each level has pairs at exactly its ε (d² = 1, 4, 9 are
  // exact), and duplicates are neighbors at distance 0.
  std::vector<Vec3> pts;
  Rng rng(231);
  for (int x = 0; x < 12; ++x) {
    for (int y = 0; y < 12; ++y) {
      if (rng.below(5) == 0) continue;
      const std::uint64_t copies = 1 + rng.below(3);
      for (std::uint64_t c = 0; c < copies; ++c) {
        pts.push_back(Vec3::xy(static_cast<float>(x), static_cast<float>(y)));
      }
    }
  }
  const std::vector<float> ladder = {2.0f, 1.0f, 3.0f, 2.0f};
  for (const IndexKind kind : kAllIndexKinds) {
    for (const int threads : kThreadCounts) {
      Clusterer session(pts, session_options(kind, threads));
      for (const std::uint32_t min_pts : {4u, 11u, 25u}) {
        (void)expect_sweep_matches_runs(
            session, ladder, min_pts,
            label(kind, threads) + " minPts=" + std::to_string(min_pts));
      }
    }
  }
}

TEST(FusedLadder, TombstonesWithMinPtsOne) {
  // min_pts 1 makes every live point core, so a dead slot — count 0 — is
  // the one slot the launch's core test alone would resurrect.  Small
  // tombstone batches are absorbed (masked); a large one rebuilds over
  // the live set (CompactedIndex).
  const auto base = data::taxi_gps(1500, 232);
  const auto extra = data::taxi_gps(600, 233);
  const std::span<const Vec3> add(extra.points);
  const std::vector<float> ladder = {0.2f, 0.35f, 0.1f};
  for (const IndexKind kind : kAllIndexKinds) {
    for (const int threads : kThreadCounts) {
      Clusterer session(base.points, session_options(kind, threads));
      (void)session.run(0.3f, 1);
      (void)session.advance(add.subspan(0, 40), 40);
      (void)expect_sweep_matches_runs(session, ladder, 1,
                                      label(kind, threads) + " absorbed");
      (void)session.advance(add.subspan(40, 400), 400);
      (void)expect_sweep_matches_runs(session, ladder, 1,
                                      label(kind, threads) + " rebuilt");
    }
  }
}

TEST(FusedLadder, DeltaTailIdsAfterInsert) {
  // A small insert joins the tree backends' delta tail; the sweep walks
  // tail ids alongside the tree.
  const auto base = data::taxi_gps(1500, 234);
  const auto extra = data::taxi_gps(120, 235);
  const std::vector<float> ladder = {0.4f, 0.25f, 0.32f};
  for (const IndexKind kind : kAllIndexKinds) {
    for (const int threads : kThreadCounts) {
      Clusterer session(base.points, session_options(kind, threads));
      (void)session.run(0.3f, 8);
      (void)session.insert(extra.points);
      (void)expect_sweep_matches_runs(session, ladder, 8,
                                      label(kind, threads));
    }
  }
}

TEST(FusedLadder, DenseBlobForcesTheOverflowRewalk) {
  // 900 points in a ball far smaller than ε_max overflow every packet's
  // buffer.  A ladder packet walks twice more — once to bucket its levels,
  // once to handle its pairs — where run() at ε_max walks once more, over
  // the same order.
  std::vector<Vec3> pts;
  Rng rng(236);
  for (int k = 0; k < 900; ++k) {
    pts.push_back({rng.uniformf(0.0f, 0.1f), rng.uniformf(0.0f, 0.1f),
                   rng.uniformf(0.0f, 0.1f)});
  }
  for (int k = 0; k < 300; ++k) {
    pts.push_back({rng.uniformf(-3.0f, 3.0f), rng.uniformf(-3.0f, 3.0f),
                   rng.uniformf(-3.0f, 3.0f)});
  }
  const std::vector<float> ladder = {0.05f, 0.5f, 0.2f};
  for (const IndexKind kind : kAllIndexKinds) {
    for (const int threads : kThreadCounts) {
      Clusterer fresh(pts, session_options(kind, threads));
      const std::uint64_t run_rewalk =
          fresh.run(0.5f, 6).stats.phase2.work.rays;
      EXPECT_GT(run_rewalk, 0u) << label(kind, threads);
      Clusterer session(pts, session_options(kind, threads));
      const auto entries = expect_sweep_matches_runs(session, ladder, 6,
                                                     label(kind, threads));
      ASSERT_FALSE(entries.empty());
      EXPECT_EQ(entries[0].stats.phase2.work.rays, 2 * run_rewalk)
          << label(kind, threads);
    }
  }
}

TEST(FusedLadder, WalkWorkEqualsACountOnlyPhaseOneAtTheTopLevel) {
  // The ladder launch's one walk is phase 1's walk at ε_max: on the same
  // index and order, the same level-0 counts and exactly the same work.
  const auto dataset = data::taxi_gps(3000, 237);
  const Params params{0.4f, 8};
  const std::vector<float> lower_eps2 = {0.3f * 0.3f, 0.2f * 0.2f};
  const std::size_t levels = 1 + lower_eps2.size();
  for (const IndexKind kind : kAllIndexKinds) {
    index::IndexBuildOptions build;
    build.threads = 1;
    const auto idx = index::make_index(dataset.points, params.eps, kind, build);
    const std::vector<std::uint32_t> order =
        dbscan::query_launch_order(dataset.points, true, 1);
    std::vector<std::uint32_t> counts;
    const rt::LaunchStats phase1 =
        dbscan::index_phase1(*idx, params, order, false, 1, counts);

    const std::size_t n = dataset.size();
    dsu::AtomicDisjointSet dsu(n * levels);
    std::vector<std::atomic<std::uint8_t>> claimed(n * levels);
    std::vector<std::atomic<std::uint8_t>> settled(n);
    std::vector<std::uint32_t> ladder_counts;
    const dbscan::CountClusterStats fused =
        dbscan::index_count_cluster(*idx, params, order, 1, ladder_counts,
                                    dsu, claimed, settled, lower_eps2);
    const char* what = index::to_string(kind);
    ASSERT_EQ(ladder_counts.size(), n * levels) << what;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(ladder_counts[i * levels], counts[i]) << what << " " << i;
    }
    EXPECT_EQ(fused.phase1.work.rays, phase1.work.rays) << what;
    EXPECT_EQ(fused.phase1.work.nodes_visited, phase1.work.nodes_visited)
        << what;
    EXPECT_EQ(fused.phase1.work.aabb_tests, phase1.work.aabb_tests) << what;
    EXPECT_EQ(fused.phase1.work.isect_calls, phase1.work.isect_calls)
        << what;
    EXPECT_EQ(fused.phase1.work.anyhit_calls, phase1.work.anyhit_calls)
        << what;
    EXPECT_EQ(fused.phase2.work.rays, 0u) << what;  // no packet overflowed
  }
}

TEST(FusedLadder, RejectsMalformedLaddersAndUndersizedWorkspace) {
  const auto dataset = data::taxi_gps(200, 238);
  const std::size_t n = dataset.size();
  const auto idx =
      index::make_index(dataset.points, 0.3f, IndexKind::kBruteForce);
  const std::vector<std::uint32_t> order =
      dbscan::query_launch_order(dataset.points, true, 1);
  dsu::AtomicDisjointSet dsu(2 * n);
  std::vector<std::atomic<std::uint8_t>> claimed(2 * n);
  std::vector<std::atomic<std::uint8_t>> settled(n);
  std::vector<std::uint32_t> counts;
  const auto launch = [&](std::vector<float> lower_eps2) {
    (void)dbscan::index_count_cluster(*idx, Params{0.3f, 5}, order, 1,
                                      counts, dsu, claimed, settled,
                                      lower_eps2);
  };
  // Not below the launch ε², not strictly descending, not positive.
  EXPECT_THROW(launch({0.1f}), std::invalid_argument);
  EXPECT_THROW(launch({0.04f, 0.05f}), std::invalid_argument);
  EXPECT_THROW(launch({0.04f, 0.04f}), std::invalid_argument);
  EXPECT_THROW(launch({0.0f}), std::invalid_argument);
  // Three levels need 3n union-find slots and claim flags.
  EXPECT_THROW(launch({0.04f, 0.01f}), std::invalid_argument);
  EXPECT_NO_THROW(launch({0.04f}));
}

// ---------------------------------------------------------------------------
// FusedProtocol: the walk / settle / handle steps of two packets that share
// ε-pairs, in every interleaving of the two step sequences.
// ---------------------------------------------------------------------------

/// Every interleaving of two 3-step sequences: 6-bit masks with three set
/// bits, bit s set = step s belongs to packet B.
std::vector<unsigned> interleavings() {
  std::vector<unsigned> out;
  for (unsigned mask = 0; mask < 64; ++mask) {
    if (std::popcount(mask) == 3) out.push_back(mask);
  }
  return out;
}

/// Drive packets A and B (together every point of `pts`) through one
/// interleaving over `ladder` (ε values, strictly descending; the walk
/// runs at ladder[0]) and check the protocol's promises at every level:
/// exact counts, every ε-pair of the walk handled at least once, every
/// border of a level claimed exactly once and no other point, and each
/// level's clustering equivalent to the sequential reference at its ε.
void drive(std::span<const Vec3> pts, std::span<const float> ladder,
           std::uint32_t min_pts, std::span<const std::uint32_t> ids_a,
           std::span<const std::uint32_t> ids_b, unsigned mask,
           const std::string& what) {
  const std::size_t n = pts.size();
  const std::size_t levels = ladder.size();
  std::vector<float> lower_eps2;
  for (std::size_t l = 1; l < levels; ++l) {
    lower_eps2.push_back(ladder[l] * ladder[l]);
  }
  const auto idx =
      index::make_index(pts, ladder[0], IndexKind::kBruteForce);
  std::vector<std::uint32_t> counts(n * levels, 0);
  std::vector<std::atomic<std::uint8_t>> settled(n);
  std::vector<std::atomic<std::uint8_t>> claimed(n * levels);
  dsu::AtomicDisjointSet dsu(n * levels);
  std::set<std::pair<std::uint32_t, std::uint32_t>> handled;
  std::vector<int> claims(n * levels, 0);
  const auto core = [&](std::uint32_t x, std::size_t l) {
    return counts[x * levels + l] + 1 >= min_pts;
  };
  const auto on_pair = [&](std::uint32_t i, std::uint32_t j, float d2) {
    handled.insert({std::min(i, j), std::max(i, j)});
    for (std::size_t l = 0; l < levels; ++l) {
      if (l > 0 && !(d2 <= lower_eps2[l - 1])) return;
      const auto a = static_cast<std::uint32_t>(l * n + i);
      const auto b = static_cast<std::uint32_t>(l * n + j);
      if (core(i, l) && core(j, l)) {
        dsu.unite(a, b);
      } else if (core(i, l)) {
        claims[b] += dbscan::claim_border(dsu, claimed, a, b) ? 1 : 0;
      } else if (core(j, l)) {
        claims[a] += dbscan::claim_border(dsu, claimed, b, a) ? 1 : 0;
      } else {
        return;
      }
    }
  };

  dbscan::CountClusterPacket packets[2];
  const std::span<const std::uint32_t> ids[2] = {ids_a, ids_b};
  int next_step[2] = {0, 0};
  rt::TraversalStats stats;
  rt::TraversalStats rewalk;
  for (int s = 0; s < 6; ++s) {
    const int p = (mask >> s) & 1u;
    switch (next_step[p]++) {
      case 0:
        packets[p].walk(*idx, ladder[0], lower_eps2, ids[p], counts, stats,
                        rewalk);
        break;
      case 1:
        packets[p].settle(settled);
        break;
      default:
        packets[p].handle(*idx, ladder[0], settled, rewalk, on_pair);
        break;
    }
  }

  for (std::size_t l = 0; l < levels; ++l) {
    const std::string at = what + ", level " + std::to_string(l);
    const std::vector<std::uint32_t> want = reference_counts(pts, ladder[l]);
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(counts[i * levels + l], want[i]) << at << ": point " << i;
    }
    const float eps2 = ladder[l] * ladder[l];
    for (std::uint32_t i = 0; i < n; ++i) {
      bool near_core = false;
      for (std::uint32_t j = 0; j < n; ++j) {
        if (i == j || geom::distance_squared(pts[i], pts[j]) > eps2) continue;
        EXPECT_EQ(handled.count({std::min(i, j), std::max(i, j)}), 1u)
            << at << ": pair (" << i << ", " << j << ") never handled";
        near_core = near_core || want[j] + 1 >= min_pts;
      }
      const bool is_core = want[i] + 1 >= min_pts;
      EXPECT_EQ(claims[l * n + i], !is_core && near_core ? 1 : 0)
          << at << ": point " << i << " claimed " << claims[l * n + i]
          << " times";
    }
    const Params params{ladder[l], min_pts};
    Clustering got;
    got.is_core.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) got.is_core[i] = core(i, l) ? 1 : 0;
    const auto base = static_cast<std::uint32_t>(l * n);
    dbscan::finalize_labels(
        n, [&](std::uint32_t x) { return dsu.find(base + x) - base; },
        got.is_core, got);
    const Clustering reference = dbscan::sequential_dbscan(pts, params);
    const auto eq = dbscan::check_equivalent(pts, params, reference, got);
    EXPECT_TRUE(eq.equivalent) << at << ": " << eq.reason;
  }
}

TEST(FusedProtocol, EveryInterleavingOfTwoPacketsHandlesEveryPair) {
  // A line at spacing 1/2.  One level at ε = 1/2 (pairs exactly at ε):
  // points 1-6 have two neighbors and are core at minPts 3, the ends are
  // borders.  The two-level ladder {1, 1/2} adds ε = 1, where every point
  // is core, and the three-level one ε = 3/2.  Two splits: alternating
  // points (every pair crosses the packets) and halves (pairs inside each
  // packet plus crossing pairs).
  std::vector<Vec3> line;
  for (int k = 0; k < 8; ++k) {
    line.push_back(Vec3::xy(0.5f * static_cast<float>(k), 0.0f));
  }
  const std::vector<std::uint32_t> even = {0, 2, 4, 6};
  const std::vector<std::uint32_t> odd = {1, 3, 5, 7};
  const std::vector<std::uint32_t> low = {0, 1, 2, 3};
  const std::vector<std::uint32_t> high = {4, 5, 6, 7};
  const std::vector<std::vector<float>> ladders = {
      {0.5f}, {1.0f, 0.5f}, {1.5f, 1.0f, 0.5f}};
  for (const auto& ladder : ladders) {
    const std::string levels = std::to_string(ladder.size()) + " levels";
    for (const unsigned mask : interleavings()) {
      drive(line, ladder, 3, even, odd, mask,
            levels + ", alternating, mask " + std::to_string(mask));
      drive(line, ladder, 3, low, high, mask,
            levels + ", halves, mask " + std::to_string(mask));
    }
  }
}

TEST(FusedProtocol, BordersBetweenClustersAreClaimedExactlyOnce) {
  // Random 8-point scenes in a small square: several cores per scene and
  // borders within ε of cores in both packets, the case where the two
  // ends' claims could collide.  Every split of the 8 points into two
  // packets of four, every interleaving, at ε = 1 alone and as the top of
  // the ladder {1, 0.8}.
  Rng rng(222);
  int scenes_with_shared_borders = 0;
  const std::uint32_t min_pts = 4;
  const std::vector<std::vector<float>> ladders = {{1.0f}, {1.0f, 0.8f}};
  for (int scene = 0; scene < 12; ++scene) {
    std::vector<Vec3> pts;
    for (int k = 0; k < 8; ++k) {
      pts.push_back(
          Vec3::xy(rng.uniformf(0.0f, 2.5f), rng.uniformf(0.0f, 2.5f)));
    }
    const std::vector<std::uint32_t> counts = reference_counts(pts, 1.0f);
    for (std::uint32_t b = 0; b < 8; ++b) {
      if (counts[b] + 1 >= min_pts) continue;
      int core_nbrs = 0;
      for (std::uint32_t c = 0; c < 8; ++c) {
        if (c != b && counts[c] + 1 >= min_pts &&
            geom::distance_squared(pts[b], pts[c]) <= 1.0f) {
          ++core_nbrs;
        }
      }
      if (core_nbrs >= 2) {
        ++scenes_with_shared_borders;
        break;
      }
    }
    for (unsigned split = 0; split < 256; ++split) {
      if (std::popcount(split) != 4 || (split & 1u) == 0) continue;
      std::vector<std::uint32_t> a;
      std::vector<std::uint32_t> b;
      for (std::uint32_t k = 0; k < 8; ++k) {
        ((split >> k) & 1u ? a : b).push_back(k);
      }
      for (const auto& ladder : ladders) {
        for (const unsigned mask : interleavings()) {
          drive(pts, ladder, min_pts, a, b, mask,
                "scene " + std::to_string(scene) + ", split " +
                    std::to_string(split) + ", " +
                    std::to_string(ladder.size()) + " levels, mask " +
                    std::to_string(mask));
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
  EXPECT_GT(scenes_with_shared_borders, 0);  // the scenes exercise the race
}

TEST(FusedProtocol, OverflowedPacketWalksAgainAndHandlesEveryPair) {
  // Four rays with ~700 neighbors each overflow the pair buffer; handle()
  // walks the packet again (its work lands in `rewalk`) and still handles
  // every pair whose other end settled.  Over a two-level ladder the walk
  // itself also walks again, to bucket the pairs the buffer dropped.
  std::vector<Vec3> pts;
  Rng rng(223);
  for (int k = 0; k < 700; ++k) {
    pts.push_back({rng.uniformf(0.0f, 0.1f), rng.uniformf(0.0f, 0.1f), 0.0f});
  }
  const float eps = 0.5f;
  const float lower = 0.05f;
  const auto idx = index::make_index(pts, eps, IndexKind::kBruteForce);
  const std::size_t n = pts.size();
  const std::vector<std::uint32_t> at_lower = reference_counts(pts, lower);
  const std::vector<std::uint32_t> ids = {0, 1, 2, 3};
  for (const std::size_t levels : {1u, 2u}) {
    const std::vector<float> lower_eps2(levels - 1, lower * lower);
    std::vector<std::uint32_t> counts(n * levels, 0);
    std::vector<std::atomic<std::uint8_t>> settled(n);
    dbscan::CountClusterPacket packet;
    rt::TraversalStats stats;
    rt::TraversalStats rewalk;
    packet.walk(*idx, eps, lower_eps2, ids, counts, stats, rewalk);
    EXPECT_TRUE(packet.overflowed());
    EXPECT_EQ(rewalk.rays, levels == 1 ? 0u : stats.rays);
    packet.settle(settled);
    for (const std::uint32_t i : ids) {
      EXPECT_EQ(counts[i * levels], n - 1);
      if (levels == 2) {
        EXPECT_EQ(counts[i * levels + 1], at_lower[i]);
      }
    }
    // Settle every other point too, as their packets would.
    for (std::size_t j = 4; j < n; ++j) settled[j].store(1);
    const rt::TraversalStats before = rewalk;
    std::size_t pairs = 0;
    std::size_t below = 0;
    packet.handle(*idx, eps, settled, rewalk,
                  [&](std::uint32_t i, std::uint32_t j, float d2) {
                    ++pairs;
                    EXPECT_EQ(d2, geom::distance_squared(pts[i], pts[j]));
                    below += d2 <= lower * lower ? 1 : 0;
                  });
    EXPECT_EQ(pairs, 4 * (n - 1));
    EXPECT_EQ(below, at_lower[0] + at_lower[1] + at_lower[2] + at_lower[3]);
    EXPECT_EQ(rewalk.rays - before.rays, stats.rays);
    EXPECT_EQ(rewalk.isect_calls - before.isect_calls, stats.isect_calls);
  }
}

}  // namespace
}  // namespace rtd
