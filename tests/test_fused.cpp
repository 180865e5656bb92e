// The fused count-and-cluster launch behind Clusterer::run()
// (dbscan::index_count_cluster): parity with a sequential reference on
// every backend and thread count, its work accounting, and the settle
// protocol of its packets driven step by step.
//
// The suites are named FusedParity / FusedProtocol so they can be run
// alone, repeated at four OpenMP threads (CI), where the interleavings of
// the settle protocol actually race.
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
/// interleaving and check the protocol's promises: every ε-pair is
/// handled at least once, every border is claimed exactly once, no other
/// point is claimed, and the clustering matches the sequential reference.
void drive(std::span<const Vec3> pts, const Params& params,
           std::span<const std::uint32_t> ids_a,
           std::span<const std::uint32_t> ids_b, unsigned mask,
           const std::string& what) {
  const std::size_t n = pts.size();
  const auto idx =
      index::make_index(pts, params.eps, IndexKind::kBruteForce);
  std::vector<std::uint32_t> counts(n, 0);
  std::vector<std::atomic<std::uint8_t>> settled(n);
  std::vector<std::atomic<std::uint8_t>> claimed(n);
  dsu::AtomicDisjointSet dsu(n);
  std::set<std::pair<std::uint32_t, std::uint32_t>> handled;
  std::vector<int> claims(n, 0);
  const auto on_pair = [&](std::uint32_t i, std::uint32_t j) {
    handled.insert({std::min(i, j), std::max(i, j)});
    const bool core_i = counts[i] + 1 >= params.min_pts;
    const bool core_j = counts[j] + 1 >= params.min_pts;
    if (core_i && core_j) {
      dsu.unite(i, j);
    } else if (core_i) {
      claims[j] += dbscan::claim_border(dsu, claimed, i, j) ? 1 : 0;
    } else if (core_j) {
      claims[i] += dbscan::claim_border(dsu, claimed, j, i) ? 1 : 0;
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
        packets[p].walk(*idx, params.eps, ids[p], stats);
        break;
      case 1:
        packets[p].settle(counts, settled);
        break;
      default:
        packets[p].handle(*idx, params.eps, settled, rewalk, on_pair);
        break;
    }
  }

  const std::vector<std::uint32_t> want = reference_counts(pts, params.eps);
  ASSERT_EQ(counts, want) << what;
  const float eps2 = params.eps_squared();
  for (std::uint32_t i = 0; i < n; ++i) {
    bool near_core = false;
    for (std::uint32_t j = 0; j < n; ++j) {
      if (i == j || geom::distance_squared(pts[i], pts[j]) > eps2) continue;
      EXPECT_EQ(handled.count({std::min(i, j), std::max(i, j)}), 1u)
          << what << ": pair (" << i << ", " << j << ") never handled";
      near_core = near_core || want[j] + 1 >= params.min_pts;
    }
    const bool core = want[i] + 1 >= params.min_pts;
    EXPECT_EQ(claims[i], !core && near_core ? 1 : 0)
        << what << ": point " << i << " claimed " << claims[i] << " times";
  }
  Clustering got;
  got.is_core.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    got.is_core[i] = counts[i] + 1 >= params.min_pts ? 1 : 0;
  }
  dbscan::finalize_labels(
      n, [&](std::uint32_t x) { return dsu.find(x); }, got.is_core, got);
  const Clustering reference = dbscan::sequential_dbscan(pts, params);
  const auto eq = dbscan::check_equivalent(pts, params, reference, got);
  EXPECT_TRUE(eq.equivalent) << what << ": " << eq.reason;
}

TEST(FusedProtocol, EveryInterleavingOfTwoPacketsHandlesEveryPair) {
  // A line at spacing 1 with ε = 1 (pairs exactly at ε): points 1-6 have
  // two neighbors and are core at minPts 3, the ends are borders.  Two
  // splits: alternating points (every pair crosses the packets) and
  // halves (pairs inside each packet plus one crossing pair).
  std::vector<Vec3> line;
  for (int k = 0; k < 8; ++k) line.push_back(Vec3::xy(static_cast<float>(k), 0.0f));
  const Params params{1.0f, 3};
  const std::vector<std::uint32_t> even = {0, 2, 4, 6};
  const std::vector<std::uint32_t> odd = {1, 3, 5, 7};
  const std::vector<std::uint32_t> low = {0, 1, 2, 3};
  const std::vector<std::uint32_t> high = {4, 5, 6, 7};
  for (const unsigned mask : interleavings()) {
    drive(line, params, even, odd, mask,
          "alternating, mask " + std::to_string(mask));
    drive(line, params, low, high, mask,
          "halves, mask " + std::to_string(mask));
  }
}

TEST(FusedProtocol, BordersBetweenClustersAreClaimedExactlyOnce) {
  // Random 8-point scenes in a small square: several cores per scene and
  // borders within ε of cores in both packets, the case where the two
  // ends' claims could collide.  Every split of the 8 points into two
  // packets of four, every interleaving.
  Rng rng(222);
  int scenes_with_shared_borders = 0;
  for (int scene = 0; scene < 12; ++scene) {
    std::vector<Vec3> pts;
    for (int k = 0; k < 8; ++k) {
      pts.push_back(
          Vec3::xy(rng.uniformf(0.0f, 2.5f), rng.uniformf(0.0f, 2.5f)));
    }
    const Params params{1.0f, 4};
    const std::vector<std::uint32_t> counts = reference_counts(pts, 1.0f);
    for (std::uint32_t b = 0; b < 8; ++b) {
      if (counts[b] + 1 >= params.min_pts) continue;
      int core_nbrs = 0;
      for (std::uint32_t c = 0; c < 8; ++c) {
        if (c != b && counts[c] + 1 >= params.min_pts &&
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
      for (const unsigned mask : interleavings()) {
        drive(pts, params, a, b, mask,
              "scene " + std::to_string(scene) + ", split " +
                  std::to_string(split) + ", mask " + std::to_string(mask));
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  EXPECT_GT(scenes_with_shared_borders, 0);  // the scenes exercise the race
}

TEST(FusedProtocol, OverflowedPacketWalksAgainAndHandlesEveryPair) {
  // Four rays with ~700 neighbors each overflow the pair buffer; handle()
  // walks the packet again (its work lands in `rewalk`) and still handles
  // every pair whose other end settled.
  std::vector<Vec3> pts;
  Rng rng(223);
  for (int k = 0; k < 700; ++k) {
    pts.push_back({rng.uniformf(0.0f, 0.1f), rng.uniformf(0.0f, 0.1f), 0.0f});
  }
  const Params params{0.5f, 5};
  const auto idx = index::make_index(pts, params.eps, IndexKind::kBruteForce);
  const std::size_t n = pts.size();
  std::vector<std::uint32_t> counts(n, 0);
  std::vector<std::atomic<std::uint8_t>> settled(n);
  const std::vector<std::uint32_t> ids = {0, 1, 2, 3};
  dbscan::CountClusterPacket packet;
  rt::TraversalStats stats;
  packet.walk(*idx, params.eps, ids, stats);
  EXPECT_TRUE(packet.overflowed());
  packet.settle(counts, settled);
  for (const std::uint32_t i : ids) EXPECT_EQ(counts[i], n - 1);
  // Settle every other point too, as their packets would.
  for (std::size_t j = 4; j < n; ++j) settled[j].store(1);
  rt::TraversalStats rewalk;
  std::size_t pairs = 0;
  packet.handle(*idx, params.eps, settled, rewalk,
                [&](std::uint32_t, std::uint32_t) { ++pairs; });
  EXPECT_EQ(pairs, 4 * (n - 1));
  EXPECT_EQ(rewalk.rays, stats.rays);
  EXPECT_EQ(rewalk.isect_calls, stats.isect_calls);
}

}  // namespace
}  // namespace rtd
