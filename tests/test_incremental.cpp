// Streaming / incremental maintenance suite: after EVERY insert(), remove()
// and advance(), the session's maintained clustering (restricted to live
// slots) must be equivalent — in the dbscan/equivalence.hpp sense — to a
// from-scratch rtd::cluster() over the live points.  Core flags, cluster
// count and the noise set are deterministic and compared exactly; border
// membership is checked geometrically.  Covers every backend, the traversal
// widths of the tree backends, merge/split/promotion edge cases, the
// rebuild-threshold and tombstone (CompactedIndex) paths, snapshot
// isolation across mutations, and a seeded randomized mutation soak.
// Run under the `tsan`/`asan` presets for the sanitizer legs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/api.hpp"
#include "core/clusterer.hpp"
#include "data/generators.hpp"
#include "dbscan/equivalence.hpp"
#include "index/point_tree.hpp"
#include "telemetry/telemetry.hpp"

namespace rtd {
namespace {

using geom::Vec3;
using index::IndexKind;

/// The session's clustering restricted to live slots, in slot order —
/// the object the oracle is compared against.
struct LiveView {
  std::vector<Vec3> points;
  std::vector<std::uint32_t> slot_of;  ///< live position -> slot id
  dbscan::Clustering clustering;
};

LiveView live_view(const Clusterer& session) {
  LiveView v;
  const std::span<const Vec3> pts = session.points();
  const ClusterResult& r = session.result();
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    if (!session.is_live(i)) continue;
    v.points.push_back(pts[i]);
    v.slot_of.push_back(i);
    v.clustering.labels.push_back(r.labels[i]);
    v.clustering.is_core.push_back(r.is_core[i]);
  }
  v.clustering.cluster_count = r.cluster_count;
  return v;
}

/// Structural invariants of the maintained result: sizes agree, the CSR
/// membership table matches the labels with ascending slots in every
/// group, dead slots sit in the noise bucket.
void expect_result_consistent(const Clusterer& session, const char* what) {
  const ClusterResult& r = session.result();
  const std::size_t n = session.size();
  ASSERT_EQ(r.labels.size(), n) << what;
  ASSERT_EQ(r.is_core.size(), n) << what;
  ASSERT_EQ(r.neighbor_counts.size(), n) << what;
  ASSERT_EQ(r.members.size(), n) << what;
  ASSERT_EQ(r.member_starts.size(),
            static_cast<std::size_t>(r.cluster_count) + 2)
      << what;
  std::vector<std::uint8_t> seen(n, 0);
  for (std::int32_t c = 0; c < static_cast<std::int32_t>(r.cluster_count);
       ++c) {
    for (const std::uint32_t m : r.members_of(c)) {
      EXPECT_EQ(r.labels[m], c) << what;
      EXPECT_TRUE(session.is_live(m)) << what << ": dead slot in cluster";
      seen[m] = 1;
    }
  }
  for (const std::uint32_t m : r.noise()) {
    EXPECT_EQ(r.labels[m], kNoise) << what;
    seen[m] = 1;
  }
  for (std::int32_t c = 0; c <= static_cast<std::int32_t>(r.cluster_count);
       ++c) {
    const auto group = c < static_cast<std::int32_t>(r.cluster_count)
                           ? r.members_of(c)
                           : r.noise();
    EXPECT_TRUE(std::is_sorted(group.begin(), group.end()))
        << what << ": membership group " << c << " is not ascending";
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
            static_cast<std::ptrdiff_t>(n))
      << what << ": membership table does not cover every slot";
  std::size_t live = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (session.is_live(i)) {
      ++live;
    } else {
      EXPECT_EQ(r.labels[i], kNoise) << what << ": dead slot labeled";
      EXPECT_EQ(r.is_core[i], 0) << what << ": dead slot core";
    }
  }
  EXPECT_EQ(session.live_count(), live) << what;
}

/// The acceptance criterion: live-restricted session labels equivalent to a
/// from-scratch cluster() over the live points.
void expect_oracle_parity(const Clusterer& session, const char* what) {
  expect_result_consistent(session, what);
  const LiveView v = live_view(session);
  const float eps = session.result().eps;
  const std::uint32_t min_pts = session.result().min_pts;
  const ClusterResult oracle = cluster(v.points, eps, min_pts);
  ASSERT_EQ(v.clustering.labels.size(), oracle.labels.size()) << what;
  EXPECT_EQ(v.clustering.is_core, oracle.is_core)
      << what << ": core flags diverge from the from-scratch oracle";
  EXPECT_EQ(v.clustering.cluster_count, oracle.cluster_count) << what;
  for (std::size_t i = 0; i < oracle.labels.size(); ++i) {
    EXPECT_EQ(v.clustering.labels[i] == kNoise, oracle.labels[i] == kNoise)
        << what << ": noise set differs at live point " << i << " (slot "
        << v.slot_of[i] << ")";
  }
  const dbscan::Params params{eps, min_pts, IndexKind::kAuto};
  const auto eq = dbscan::check_equivalent(v.points, params,
                                           oracle.to_clustering(),
                                           v.clustering);
  EXPECT_TRUE(eq.equivalent) << what << ": " << eq.reason;
}

// ---------------------------------------------------------------------------
// Per-backend oracle parity: inserts, removals, interleavings.
// ---------------------------------------------------------------------------

TEST(IncrementalParity, InsertsMatchOracleOnEveryBackend) {
  const auto base = data::taxi_gps(1200, 101);
  const auto extra = data::taxi_gps(300, 102);
  for (const IndexKind kind : index::kAllIndexKinds) {
    Clusterer session(base.points, Options().with_backend(kind));
    (void)session.run(0.3f, 8);
    const std::span<const Vec3> add(extra.points);
    std::size_t expect_first = base.size();
    for (const std::size_t batch : {1UL, 49UL, 250UL}) {
      const std::size_t first = session.insert(
          add.subspan(expect_first - base.size(), batch));
      EXPECT_EQ(first, expect_first) << index::to_string(kind);
      expect_first += batch;
      EXPECT_EQ(session.size(), expect_first);
      EXPECT_EQ(session.live_count(), expect_first);
      EXPECT_TRUE(session.result().stats.incremental);
      expect_oracle_parity(session, index::to_string(kind));
    }
  }
}

TEST(IncrementalParity, RemovalsMatchOracleOnEveryBackend) {
  const auto base = data::taxi_gps(1200, 103);
  for (const IndexKind kind : index::kAllIndexKinds) {
    Clusterer session(base.points, Options().with_backend(kind));
    (void)session.run(0.3f, 8);
    // Three batches spread across the id space, including cluster interiors.
    std::uint32_t next = 1;
    for (const std::size_t batch : {1UL, 40UL, 200UL}) {
      std::vector<std::uint32_t> ids;
      for (std::size_t k = 0; k < batch; ++k, next += 5) {
        ids.push_back(next % static_cast<std::uint32_t>(base.size()));
        while (!session.is_live(ids.back())) {
          ids.back() = (ids.back() + 1) %
                       static_cast<std::uint32_t>(base.size());
        }
        // Regenerate on collision within the batch.
        for (std::size_t p = 0; p + 1 < ids.size(); ++p) {
          if (ids[p] == ids.back()) {
            ids.pop_back();
            --k;
            break;
          }
        }
      }
      session.remove(ids);
      EXPECT_EQ(session.size(), base.size()) << index::to_string(kind);
      expect_oracle_parity(session, index::to_string(kind));
    }
  }
}

TEST(IncrementalParity, WidthParityOnTreeBackends) {
  // Above rt::kWideBvhMinPrims so kWide exercises the SoA walk.
  const auto base = data::taxi_gps(6000, 104);
  const auto extra = data::taxi_gps(200, 105);
  for (const IndexKind kind : {IndexKind::kPointBvh, IndexKind::kBvhRt}) {
    for (const rt::TraversalWidth width :
         {rt::TraversalWidth::kBinary, rt::TraversalWidth::kWide}) {
      Clusterer session(base.points,
                        Options().with_backend(kind).with_width(width));
      (void)session.run(0.25f, 10);
      (void)session.insert(extra.points);
      std::vector<std::uint32_t> ids;
      for (std::uint32_t id = 7; ids.size() < 150; id += 41) {
        ids.push_back(id % static_cast<std::uint32_t>(session.size()));
      }
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      session.remove(ids);
      expect_oracle_parity(session, index::to_string(kind));
    }
  }
}

TEST(IncrementalParity, SlidingWindowAdvanceMatchesWindowedBatch) {
  const auto stream = data::taxi_gps(2000, 106);
  const std::size_t window = 500;
  const std::size_t step = 125;
  const float eps = 0.3f;
  const std::uint32_t min_pts = 6;
  const std::span<const Vec3> all(stream.points);

  Clusterer session(all.subspan(0, window), Options());
  (void)session.run(eps, min_pts);
  expect_oracle_parity(session, "initial window");
  for (std::size_t start = step; start + window <= all.size();
       start += step) {
    (void)session.advance(all.subspan(start + window - step, step), step);
    EXPECT_EQ(session.live_count(), window);
    expect_oracle_parity(session, "advanced window");
    // The live set IS the window — so the oracle comparison above already
    // equals a from-scratch batch run over exactly these window points.
    const LiveView v = live_view(session);
    ASSERT_EQ(v.points.size(), window);
    for (std::size_t k = 0; k < window; ++k) {
      EXPECT_EQ(v.points[k], all[start + k]);
    }
  }
}

// ---------------------------------------------------------------------------
// Merge / split / promotion edge cases.
// ---------------------------------------------------------------------------

/// Two well-separated dense blobs plus helpers to bridge them.
std::vector<Vec3> two_blobs() {
  std::vector<Vec3> pts;
  for (int i = 0; i < 8; ++i) {
    pts.push_back({0.1f * static_cast<float>(i % 3),
                   0.1f * static_cast<float>(i / 3), 0.0f});
    pts.push_back({10.0f + 0.1f * static_cast<float>(i % 3),
                   0.1f * static_cast<float>(i / 3), 0.0f});
  }
  return pts;
}

TEST(IncrementalEdge, BridgeInsertMergesAndRemovalSplits) {
  Clusterer session(two_blobs(), Options());
  const float eps = 0.9f;
  (void)session.run(eps, 3);
  ASSERT_EQ(session.result().cluster_count, 2u);

  // A chain of points every 0.5 across the gap merges the blobs.
  std::vector<Vec3> bridge;
  for (float x = 0.5f; x < 10.0f; x += 0.5f) bridge.push_back({x, 0, 0});
  const std::size_t first = session.insert(bridge);
  EXPECT_EQ(session.result().cluster_count, 1u);
  expect_oracle_parity(session, "after bridge insert");

  // Cutting the chain in the middle splits the merged cluster again.
  std::vector<std::uint32_t> cut;
  for (std::uint32_t k = 8; k < 12; ++k) {
    cut.push_back(static_cast<std::uint32_t>(first) + k);
  }
  session.remove(cut);
  EXPECT_EQ(session.result().cluster_count, 2u);
  expect_oracle_parity(session, "after bridge cut");
}

TEST(IncrementalEdge, RemovingACoreDissolvesAMinimalCluster) {
  // Exactly min_pts mutually-close points: one removal demotes the rest.
  std::vector<Vec3> pts = {{0, 0, 0}, {0.1f, 0, 0}, {0, 0.1f, 0}};
  pts.push_back({50, 50, 0});  // far noise, keeps the index non-trivial
  Clusterer session(pts, Options());
  (void)session.run(0.2f, 3);
  ASSERT_EQ(session.result().cluster_count, 1u);
  session.remove(std::vector<std::uint32_t>{1});
  EXPECT_EQ(session.result().cluster_count, 0u);
  expect_oracle_parity(session, "dissolved cluster");
}

TEST(IncrementalEdge, InsertPromotesBorderAndCapturesOldNoise) {
  // p0-p1 within eps but below min_pts=3: both noise.  Inserting one point
  // near them promotes all three to core — old noise must join the new
  // cluster.
  std::vector<Vec3> pts = {{0, 0, 0}, {0.1f, 0, 0}, {30, 30, 0}};
  Clusterer session(pts, Options());
  (void)session.run(0.2f, 3);
  ASSERT_EQ(session.result().cluster_count, 0u);
  (void)session.insert(std::vector<Vec3>{{0.05f, 0.05f, 0}});
  EXPECT_EQ(session.result().cluster_count, 1u);
  EXPECT_NE(session.result().labels[0], kNoise);
  EXPECT_NE(session.result().labels[1], kNoise);
  expect_oracle_parity(session, "promotion");
}

TEST(IncrementalEdge, InsertedCoreNearADemotedCoreSeesNoStaleState) {
  // x has exactly four neighbors (eps 1, min_pts 4): the three oldest
  // slots and the head of a long chain.  One advance() expires those three
  // and inserts q within eps of x plus two points that make q a core, so x
  // is demoted in the same batch that adds a core beside it.  Split
  // detection then meets q among x's neighbors before the result vectors
  // have grown to cover it: q must read as "not an old core, not an old
  // member", never as whatever lies past the pre-mutation arrays.
  std::vector<Vec3> pts = {
      {0.0f, 0.7f, 0}, {0.0f, -0.7f, 0}, {0.3f, 0.7f, 0},  // expire first
      {0.0f, 0.0f, 0}};                                       // x
  for (int k = 0; k < 60; ++k) {
    pts.push_back({0.6f + 0.45f * static_cast<float>(k), 0.0f, 0.0f});
  }
  const std::vector<Vec3> batch = {
      {-0.5f, 0.0f, 0}, {-1.2f, 0.0f, 0}, {-1.0f, 0.6f, 0}};
  for (const IndexKind kind : index::kAllIndexKinds) {
    Clusterer session(pts, Options().with_backend(kind));
    (void)session.run(1.0f, 4);
    ASSERT_TRUE(session.result().is_core[3]) << index::to_string(kind);
    const std::size_t q = session.advance(batch, 3);
    const ClusterResult& r = session.result();
    EXPECT_FALSE(r.is_core[3]) << index::to_string(kind) << ": x demoted";
    EXPECT_TRUE(r.is_core[q]) << index::to_string(kind) << ": q is core";
    EXPECT_EQ(r.cluster_count, 2u) << index::to_string(kind);
    expect_oracle_parity(session, index::to_string(kind));
  }
}

TEST(IncrementalEdge, EmptySessionStreamsFromNothing) {
  Clusterer session(std::vector<Vec3>{}, Options());
  (void)session.run(0.3f, 4);
  EXPECT_EQ(session.result().cluster_count, 0u);
  const auto batch = data::taxi_gps(400, 107);
  const std::size_t first = session.insert(batch.points);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(session.live_count(), batch.size());
  expect_oracle_parity(session, "stream from empty");
}

TEST(IncrementalEdge, MutationsAfterSweepMaintainTheLastLadderEntry) {
  const auto base = data::taxi_gps(900, 108);
  Clusterer session(base.points, Options());
  const std::vector<float> ladder = {0.2f, 0.35f, 0.5f};
  (void)session.sweep(ladder, 6);
  EXPECT_EQ(session.result().eps, ladder.back());
  (void)session.insert(data::taxi_gps(60, 109).points);
  session.remove(std::vector<std::uint32_t>{3, 500, 899});
  expect_oracle_parity(session, "post-sweep stream");
}

// ---------------------------------------------------------------------------
// Stable cluster ids: clusters the repair leaves alone keep their label
// values; ids stay dense in [0, cluster_count).
// ---------------------------------------------------------------------------

/// `sides` square grids of side x side points at pitch 0.1 — all core at
/// eps 0.25, min_pts 4 — centred 10 apart along x, in slot order.
std::vector<Vec3> grid_blobs(std::initializer_list<int> sides) {
  std::vector<Vec3> pts;
  float x0 = 0.0f;
  for (const int side : sides) {
    for (int i = 0; i < side * side; ++i) {
      pts.push_back({x0 + 0.1f * static_cast<float>(i % side),
                     0.1f * static_cast<float>(i / side), 0.0f});
    }
    x0 += 10.0f;
  }
  return pts;
}

/// Every id in [0, cluster_count) labels at least one point.
void expect_dense_ids(const ClusterResult& r, const char* what) {
  for (std::int32_t c = 0; c < static_cast<std::int32_t>(r.cluster_count);
       ++c) {
    EXPECT_FALSE(r.members_of(c).empty()) << what << ": id " << c
                                          << " is unused";
  }
}

TEST(StableIds, RepairInsideOneClusterKeepsEveryOtherLabel) {
  // advance() expires slot 0 and inserts one point, both inside blob 0:
  // the repair set lies inside that one cluster.
  const std::vector<Vec3> pts = grid_blobs({4, 4, 4, 4, 4});
  Clusterer session(pts, Options());
  (void)session.run(0.25f, 4);
  ASSERT_EQ(session.result().cluster_count, 5u);
  const std::vector<std::int32_t> before = session.result().labels;
  const std::size_t q =
      session.advance(std::vector<Vec3>{{0.15f, 0.15f, 0.0f}}, 1);
  const ClusterResult& r = session.result();
  EXPECT_EQ(r.cluster_count, 5u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_EQ(r.labels[i], before[i]) << "slot " << i;
  }
  EXPECT_EQ(r.labels[q], before[1]);
  expect_dense_ids(r, "one-cluster repair");
  expect_oracle_parity(session, "one-cluster repair");
}

TEST(StableIds, MergeKeepsTheLargerClustersIdAndFillsTheFreedOne) {
  // Blob 0 (3x3) is bridged into blob 1 (4x4, 10 to its right) by a chain
  // of cores at pitch 0.1; blobs 2-4 are untouched.
  const std::vector<Vec3> pts = grid_blobs({3, 4, 4, 4, 4});
  Clusterer session(pts, Options());
  (void)session.run(0.25f, 4);
  ASSERT_EQ(session.result().cluster_count, 5u);
  const std::vector<std::int32_t> before = session.result().labels;
  const std::int32_t small = before[0];
  const std::int32_t large = before[9];
  std::vector<Vec3> bridge;
  for (int k = 3; k < 100; ++k) {
    bridge.push_back({0.1f * static_cast<float>(k), 0.0f, 0.0f});
  }
  (void)session.insert(bridge);
  const ClusterResult& r = session.result();
  ASSERT_EQ(r.cluster_count, 4u);
  // The merged cluster keeps the larger side's id; the highest old id (4)
  // moves into the freed one unless the freed one was the highest.
  for (std::size_t i = 0; i < pts.size(); ++i) {
    std::int32_t want = before[i];
    if (want == small) want = large;
    if (want == 4 && small != 4) want = small;
    EXPECT_EQ(r.labels[i], want) << "slot " << i;
  }
  expect_dense_ids(r, "merge");
  expect_oracle_parity(session, "merge");
}

TEST(StableIds, MergeIntoTheHighestIdMovesItIntoTheFreedOne) {
  // Blob 3 (3x3) is bridged into blob 4 (4x4), the cluster with the
  // highest id: the merged cluster keeps blob 4's id, which is then
  // moved down into the hole blob 3 left — its own old id.
  const std::vector<Vec3> pts = grid_blobs({4, 4, 4, 3, 4});
  Clusterer session(pts, Options());
  (void)session.run(0.25f, 4);
  ASSERT_EQ(session.result().cluster_count, 5u);
  const std::vector<std::int32_t> before = session.result().labels;
  const std::int32_t small = before[48];
  const std::int32_t large = before[57];
  ASSERT_EQ(large, 4);
  std::vector<Vec3> bridge;
  for (int k = 3; k < 100; ++k) {
    bridge.push_back({30.0f + 0.1f * static_cast<float>(k), 0.0f, 0.0f});
  }
  const std::size_t first_bridge = session.insert(bridge);
  {
    const ClusterResult& r = session.result();
    ASSERT_EQ(r.cluster_count, 4u);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const std::int32_t want =
          before[i] == small || before[i] == large ? small : before[i];
      EXPECT_EQ(r.labels[i], want) << "slot " << i;
    }
    expect_dense_ids(r, "merge into the highest id");
    expect_oracle_parity(session, "merge into the highest id");
  }
  // The next repair works from the spliced table: cutting two bridge
  // points (a 0.3 gap) splits the cluster again.
  const auto mid = static_cast<std::uint32_t>(first_bridge + 48);
  session.remove(std::vector<std::uint32_t>{mid, mid + 1});
  EXPECT_EQ(session.result().cluster_count, 5u);
  expect_dense_ids(session.result(), "split after the merge");
  expect_oracle_parity(session, "split after the merge");
}

TEST(StableIds, DissolvedClusterHoleTakesTheHighestId) {
  const std::vector<Vec3> pts = grid_blobs({4, 4, 4, 4, 4});
  Clusterer session(pts, Options());
  (void)session.run(0.25f, 4);
  ASSERT_EQ(session.result().cluster_count, 5u);
  const std::vector<std::int32_t> before = session.result().labels;
  // Remove all of blob 1 (slots 16..31).
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 16; i < 32; ++i) ids.push_back(i);
  const std::int32_t freed = before[16];
  session.remove(ids);
  const ClusterResult& r = session.result();
  ASSERT_EQ(r.cluster_count, 4u);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (i >= 16 && i < 32) continue;
    const std::int32_t want =
        before[i] == 4 && freed != 4 ? freed : before[i];
    EXPECT_EQ(r.labels[i], want) << "slot " << i;
  }
  expect_dense_ids(r, "dissolve");
  expect_oracle_parity(session, "dissolve");
}

// ---------------------------------------------------------------------------
// Rebuild-threshold and tombstone (CompactedIndex) paths.
// ---------------------------------------------------------------------------

TEST(IncrementalMaintenance, ThresholdCrossingRebuildsAndStaysConsistent) {
  const auto base = data::taxi_gps(200, 110);
  Clusterer session(base.points,
                    Options().with_backend(IndexKind::kPointBvh));
  (void)session.run(0.3f, 5);

  // Small batch: absorbed in place (threshold is max(64, live/8) = 64).
  (void)session.insert(data::taxi_gps(10, 111).points);
  EXPECT_FALSE(session.result().stats.index_rebuilt);
  expect_oracle_parity(session, "absorbed insert");

  // One big batch blows the budget: the session must rebuild.
  (void)session.insert(data::taxi_gps(100, 112).points);
  EXPECT_TRUE(session.result().stats.index_rebuilt);
  expect_oracle_parity(session, "threshold rebuild");

  // Past-threshold removals rebuild over the live set (CompactedIndex
  // underneath); follow-up small mutations absorb into it.
  std::vector<std::uint32_t> ids;
  for (std::uint32_t id = 0; id < 70; ++id) ids.push_back(id * 4);
  session.remove(ids);
  EXPECT_TRUE(session.result().stats.index_rebuilt);
  expect_oracle_parity(session, "tombstoned rebuild");
  (void)session.insert(data::taxi_gps(8, 113).points);
  EXPECT_FALSE(session.result().stats.index_rebuilt);
  session.remove(std::vector<std::uint32_t>{1, 5, 9});
  expect_oracle_parity(session, "absorb into compacted index");
}

TEST(IncrementalMaintenance, RerunAndRetargetAfterMutationsStayExact) {
  // run()/sweep() on a session with tombstones must cluster the live set
  // only — including on a rebuild-only backend, where the eps retarget
  // forces a fresh (compacted) build.
  const auto base = data::taxi_gps(800, 114);
  for (const IndexKind kind : {IndexKind::kGrid, IndexKind::kBvhRt}) {
    Clusterer session(base.points, Options().with_backend(kind));
    (void)session.run(0.3f, 6);
    std::vector<std::uint32_t> ids;
    for (std::uint32_t id = 2; id < 300; id += 3) ids.push_back(id);
    session.remove(ids);
    expect_oracle_parity(session, "after removals");
    (void)session.run(0.42f, 6);  // retarget with tombstones present
    EXPECT_FALSE(session.result().stats.incremental);
    expect_oracle_parity(session, "full rerun with tombstones");
    (void)session.insert(data::taxi_gps(40, 115).points);
    expect_oracle_parity(session, "stream after rerun");
  }
}

/// Brute-force answer of one epoch: the ids of `points` within ε of `probe`
/// that `live` marks live (an empty mask marks every id live).
std::vector<std::uint32_t> epoch_neighbors(
    std::span<const Vec3> points, const std::vector<std::uint8_t>& live,
    const Vec3& probe, float eps) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t j = 0; j < points.size(); ++j) {
    if ((live.empty() || live[j] != 0) &&
        geom::distance_squared(probe, points[j]) <= eps * eps) {
      ids.push_back(j);
    }
  }
  return ids;
}

std::vector<std::uint8_t> live_mask(const Clusterer& session) {
  std::vector<std::uint8_t> live(session.size());
  for (std::uint32_t j = 0; j < live.size(); ++j) live[j] = session.is_live(j);
  return live;
}

TEST(IncrementalMaintenance, SnapshotsAreIsolatedFromMutations) {
  // Every write below runs while a snapshot holds the current index: the
  // session absorbs it into a cloned version (no rebuild), the held
  // snapshot keeps answering for its own epoch, and a fresh snapshot
  // serves the post-write live set.  The writes insert more points than
  // the delta tail scans linearly, so later epochs query the tail's tree,
  // and the last one removes enough points for a masked refit of the
  // main tree, which must not reach the held version.
  const auto base = data::taxi_gps(8000, 116);
  const auto extra = data::taxi_gps(4000, 117);
  const float eps = 0.3f;
  constexpr int kRounds = 9;
  constexpr std::size_t kInsert = 40;
  static_assert(kRounds * kInsert > index::DeltaTail::kResidue);
  std::vector<Vec3> probes;
  for (std::size_t q = 0; q < 24; ++q) probes.push_back(base.points[q * 97]);

  for (const IndexKind kind :
       {IndexKind::kBvhRt, IndexKind::kPointBvh, IndexKind::kBruteForce}) {
    const std::string what = index::to_string(kind);
    Clusterer session(base.points, Options().with_backend(kind));
    (void)session.run(eps, 6);
    std::size_t next = 0;  // next unused point of `extra`
    for (int round = 0; round < kRounds; ++round) {
      const auto held = session.snapshot();
      const std::vector<std::uint8_t> held_live = live_mask(session);
      std::vector<std::vector<std::uint32_t>> held_ids;
      for (const Vec3& p : probes) {
        held_ids.push_back(epoch_neighbors(held->points(), held_live, p, eps));
      }

      // New points land on the probes (they must stay invisible to the
      // held epoch); removals take a probe's neighbors (they must stay
      // visible to it).
      const auto fresh_points =
          std::span<const Vec3>(extra.points).subspan(next, kInsert);
      std::vector<Vec3> batch(fresh_points.begin(), fresh_points.end());
      next += kInsert;
      for (std::size_t k = 0; k < 8; ++k) {
        batch[k] = probes[(static_cast<std::size_t>(round) + k) %
                          probes.size()];
      }
      const bool last = round + 1 == kRounds;
      std::vector<std::uint32_t> doomed;
      for (const std::uint32_t j :
           held_ids[static_cast<std::size_t>(round) % probes.size()]) {
        if (doomed.size() < 3) doomed.push_back(j);
      }
      if (last) {  // every probe loses neighbors; past the refit trigger
        std::vector<std::uint8_t> picked(held_live.size(), 0);
        doomed.clear();
        const auto pick = [&](std::uint32_t j) {
          if (held_live[j] != 0 && picked[j] == 0) {
            picked[j] = 1;
            doomed.push_back(j);
          }
        };
        for (const auto& ids : held_ids) {
          for (std::size_t k = 0; k < ids.size() && k < 8; ++k) pick(ids[k]);
        }
        for (std::uint32_t j = 0; doomed.size() < 320; j += 23) pick(j);
      }
      switch (round % 3) {
        case 0:
          (void)session.insert(batch);
          break;
        case 1:
          (void)session.advance(batch, 4);
          break;
        default:
          (void)session.insert(batch);
          EXPECT_FALSE(session.result().stats.index_rebuilt) << what;
          if (!doomed.empty()) session.remove(doomed);
          break;
      }
      EXPECT_FALSE(session.result().stats.index_rebuilt)
          << what << " round " << round;

      // The held epoch answers exactly as before the write...
      for (std::size_t q = 0; q < probes.size(); ++q) {
        EXPECT_EQ(held->query_neighbors(probes[q]), held_ids[q])
            << what << " round " << round << " probe " << q;
      }
      // ...and a fresh snapshot serves the post-write live set.
      const auto fresh = session.snapshot();
      EXPECT_EQ(fresh->size(), session.size()) << what;
      const std::vector<std::uint8_t> live_now = live_mask(session);
      for (std::size_t q = 0; q < probes.size(); ++q) {
        EXPECT_EQ(fresh->query_neighbors(probes[q]),
                  epoch_neighbors(session.points(), live_now, probes[q], eps))
            << what << " round " << round << " probe " << q;
      }
      if (::testing::Test::HasFailure()) return;
    }
    expect_oracle_parity(session, "mutations under snapshots");
  }
}

TEST(IncrementalMaintenance, WritesUnderSnapshotsCloneOnlyWhatTheyMutate) {
  // Grid/dense-box cannot absorb inserts or retarget ε, so a write under a
  // held snapshot that needs either rebuilds straight away instead of
  // cloning a version it would discard.  A removal is absorbed on a clone
  // (which shares the immutable cells), and the held epoch keeps seeing
  // the removed points.  A tree backend clones for an insert.
  const auto base = data::taxi_gps(2000, 118);
  const auto extra = data::taxi_gps(64, 119);
  const float eps = 0.3f;
  Vec3 probe = base.points[0];  // a point with a few neighbors
  for (const Vec3& p : base.points) {
    probe = p;
    if (epoch_neighbors(base.points, {}, p, eps).size() >= 4) break;
  }
  const auto clones = [] {
    return telemetry::snapshot().counter(telemetry::Counter::kIndexClones);
  };
  telemetry::arm(telemetry::kMetrics);
  for (const IndexKind kind : {IndexKind::kGrid, IndexKind::kDenseBox}) {
    const std::string what = index::to_string(kind);
    telemetry::reset();
    Clusterer session(base.points, Options().with_backend(kind));
    (void)session.run(eps, 6);

    auto held = session.snapshot();
    const auto held_ids = held->query_neighbors(probe);
    ASSERT_GE(held_ids.size(), 2u) << what;
    const std::vector<std::uint32_t> doomed(held_ids.begin(),
                                            held_ids.begin() + 2);
    session.remove(doomed);
    EXPECT_FALSE(session.result().stats.index_rebuilt) << what;
    EXPECT_EQ(clones(), 1u) << what;
    EXPECT_EQ(held->query_neighbors(probe), held_ids) << what;
    EXPECT_EQ(session.snapshot()->query_neighbors(probe),
              std::vector<std::uint32_t>(held_ids.begin() + 2, held_ids.end()))
        << what;

    held = session.snapshot();
    (void)session.insert(extra.points);
    EXPECT_TRUE(session.result().stats.index_rebuilt) << what;
    held = session.snapshot();
    (void)session.run(eps * 0.5f, 6);  // ε retarget: a rebuild
    held = session.snapshot();
    (void)session.sweep(std::vector<float>{eps * 0.25f, eps * 0.5f}, 6);
    EXPECT_EQ(clones(), 1u) << what << ": no clone for a rebuild";
    expect_oracle_parity(session, what.c_str());
  }

  telemetry::reset();
  Clusterer session(base.points, Options().with_backend(IndexKind::kPointBvh));
  (void)session.run(eps, 6);
  const auto held = session.snapshot();
  (void)session.insert(extra.points);
  EXPECT_FALSE(session.result().stats.index_rebuilt);
  EXPECT_EQ(clones(), 1u);
  telemetry::disarm_all();
  telemetry::reset();
}

// ---------------------------------------------------------------------------
// Randomized mutation soak: seeded, oracle-checked after EVERY operation.
// ---------------------------------------------------------------------------

TEST(IncrementalSoak, SeededMutationStormMatchesOracleOnEveryBackend) {
  for (const IndexKind kind : index::kAllIndexKinds) {
    Rng rng(0xD15EA5E0 + static_cast<std::uint64_t>(kind));
    const auto base = data::taxi_gps(500, 118);
    Clusterer session(base.points, Options().with_backend(kind));
    float eps = 0.3f;
    (void)session.run(eps, 5);

    for (int op = 0; op < 24; ++op) {
      const std::uint64_t dice = rng.below(10);
      if (dice < 4) {  // insert a small cluster-ish batch
        std::vector<Vec3> batch;
        const float cx = rng.uniformf(0.0f, 10.0f);
        const float cy = rng.uniformf(0.0f, 10.0f);
        const std::size_t k = 1 + rng.below(30);
        for (std::size_t p = 0; p < k; ++p) {
          batch.push_back({cx + rng.uniformf(-0.4f, 0.4f),
                           cy + rng.uniformf(-0.4f, 0.4f), 0.0f});
        }
        (void)session.insert(batch);
      } else if (dice < 7) {  // remove random live ids
        std::vector<std::uint32_t> ids;
        const std::size_t want =
            1 + rng.below(std::min<std::uint64_t>(25,
                                                  session.live_count() - 1));
        while (ids.size() < want) {
          const auto id =
              static_cast<std::uint32_t>(rng.below(session.size()));
          if (session.is_live(id) &&
              std::find(ids.begin(), ids.end(), id) == ids.end()) {
            ids.push_back(id);
          }
        }
        session.remove(ids);
      } else if (dice < 9) {  // sliding advance
        std::vector<Vec3> batch;
        const std::size_t k = 1 + rng.below(15);
        for (std::size_t p = 0; p < k; ++p) {
          batch.push_back({rng.uniformf(0.0f, 10.0f),
                           rng.uniformf(0.0f, 10.0f), 0.0f});
        }
        const std::size_t expire =
            rng.below(std::min<std::uint64_t>(10, session.live_count()));
        (void)session.advance(batch, expire);
      } else {  // full re-run, sometimes at a new eps (retarget)
        eps = rng.coin() ? eps : rng.uniformf(0.2f, 0.5f);
        (void)session.run(eps, 5);
      }
      expect_oracle_parity(session, index::to_string(kind));
      if (::testing::Test::HasFailure()) return;  // first divergence only
    }
  }
}

// ---------------------------------------------------------------------------
// Split sites: several ε-separated cuts in one cluster.  A disc with chains
// leaving its edge; at eps 1, min_pts 3 every point of a chain (step 0.4)
// is a core, so removing two or more consecutive chain points cuts it.
// ---------------------------------------------------------------------------

struct DiscWithChains {
  std::vector<Vec3> points;  ///< the disc (slots [0, 120)), then each chain
  std::vector<std::pair<std::uint32_t, std::uint32_t>> chains;  ///< [lo, hi)
};

/// 120 points uniform in a disc of radius 2 at the origin, then 2-5 chains
/// of 20-40 points leaving the disc edge in steps of 0.4 with a small
/// random bend.
DiscWithChains disc_with_chains(Rng& rng) {
  DiscWithChains d;
  const double two_pi = 2.0 * std::numbers::pi;
  for (int i = 0; i < 120; ++i) {
    const double rad = 2.0 * std::sqrt(rng.uniform());
    const double a = two_pi * rng.uniform();
    d.points.push_back({static_cast<float>(rad * std::cos(a)),
                        static_cast<float>(rad * std::sin(a)), 0.0f});
  }
  const std::uint64_t chains = 2 + rng.below(4);
  for (std::uint64_t c = 0; c < chains; ++c) {
    const std::uint64_t len = 20 + rng.below(21);
    double heading = two_pi * rng.uniform();
    double x = 2.0 * std::cos(heading);
    double y = 2.0 * std::sin(heading);
    const auto lo = static_cast<std::uint32_t>(d.points.size());
    for (std::uint64_t k = 0; k < len; ++k) {
      heading += rng.uniform(-0.15, 0.15);
      x += 0.4 * std::cos(heading);
      y += 0.4 * std::sin(heading);
      d.points.push_back({static_cast<float>(x), static_cast<float>(y), 0.0f});
    }
    d.chains.emplace_back(lo, static_cast<std::uint32_t>(d.points.size()));
  }
  return d;
}

/// One round of cuts: 3 random disc points plus 1-3 runs of 1-5
/// consecutive chain points, each id taken only while live.
std::vector<std::uint32_t> cut_round(Rng& rng, const Clusterer& session,
                                     const DiscWithChains& d) {
  std::vector<std::uint32_t> ids;
  const auto take = [&](std::uint32_t id) {
    if (session.is_live(id) &&
        std::find(ids.begin(), ids.end(), id) == ids.end()) {
      ids.push_back(id);
    }
  };
  for (int t = 0; t < 3; ++t) {
    take(static_cast<std::uint32_t>(rng.below(120)));
  }
  const std::uint64_t runs = 1 + rng.below(3);
  for (std::uint64_t run = 0; run < runs; ++run) {
    const auto [lo, hi] = d.chains[rng.below(d.chains.size())];
    const std::uint64_t len = 1 + rng.below(5);
    const auto start =
        static_cast<std::uint32_t>(lo + rng.below(hi - lo));
    for (std::uint32_t id = start; id < hi && id < start + len; ++id) {
      take(id);
    }
  }
  return ids;
}

/// Six cut rounds on the world of `seed`, oracle-checked after every
/// remove().  With `inserts`, 1-3 points land beside a random chain point
/// between rounds (possibly re-bridging a cut).  True when parity held.
bool cut_rounds_match_oracle(std::uint64_t seed, IndexKind kind,
                             bool inserts) {
  Rng rng(seed);
  const DiscWithChains d = disc_with_chains(rng);
  Clusterer session(d.points, Options().with_backend(kind));
  (void)session.run(1.0f, 3);
  const std::string what = std::string(index::to_string(kind)) + " seed " +
                           std::to_string(seed) +
                           (inserts ? " with inserts" : "");
  for (int round = 0; round < 6; ++round) {
    session.remove(cut_round(rng, session, d));
    expect_oracle_parity(session, what.c_str());
    if (::testing::Test::HasFailure()) return false;
    if (inserts) {
      const auto [lo, hi] = d.chains[rng.below(d.chains.size())];
      const Vec3 at = d.points[lo + rng.below(hi - lo)];
      std::vector<Vec3> batch;
      for (std::uint64_t p = 1 + rng.below(3); p > 0; --p) {
        batch.push_back({at.x + rng.uniformf(-0.3f, 0.3f),
                         at.y + rng.uniformf(-0.3f, 0.3f), 0.0f});
      }
      (void)session.insert(batch);
      expect_oracle_parity(session, what.c_str());
      if (::testing::Test::HasFailure()) return false;
    }
  }
  return true;
}

TEST(IncrementalEdge, TwoCutsOnOneChainSplitOffTheMiddleAndTheTail) {
  // Blob (10 x 10 at pitch 0.3), then a chain along +x in steps of 0.4:
  // cut A (3 points), middle (6), cut B (3), tail (30).  Removing both
  // cuts proves a split at each site; each site's search would keep a
  // different residual (the blob at A, the tail at B), so the cluster
  // must be settled as a whole.
  std::vector<Vec3> pts;
  for (int i = 0; i < 100; ++i) {
    pts.push_back({0.3f * static_cast<float>(i % 10),
                   0.3f * static_cast<float>(i / 10), 0.0f});
  }
  const auto chain = [&](int k) {
    return Vec3{2.7f + 0.4f * static_cast<float>(k + 1), 1.35f, 0.0f};
  };
  std::vector<std::uint32_t> cuts;
  std::vector<std::uint32_t> middle;
  std::vector<std::uint32_t> tail;
  for (int k = 0; k < 42; ++k) {
    const auto slot = static_cast<std::uint32_t>(pts.size());
    pts.push_back(chain(k));
    (k < 3 || (k >= 9 && k < 12) ? cuts : k < 9 ? middle : tail)
        .push_back(slot);
  }
  for (const IndexKind kind : index::kAllIndexKinds) {
    Clusterer session(pts, Options().with_backend(kind));
    (void)session.run(1.0f, 3);
    ASSERT_EQ(session.result().cluster_count, 1u) << index::to_string(kind);
    session.remove(cuts);
    const ClusterResult& r = session.result();
    EXPECT_EQ(r.cluster_count, 3u) << index::to_string(kind);
    const std::int32_t blob = r.labels[0];
    for (const std::uint32_t m : middle) {
      EXPECT_EQ(r.labels[m], r.labels[middle[0]]) << index::to_string(kind);
    }
    for (const std::uint32_t t : tail) {
      EXPECT_EQ(r.labels[t], r.labels[tail[0]]) << index::to_string(kind);
    }
    EXPECT_NE(r.labels[middle[0]], blob) << index::to_string(kind);
    EXPECT_NE(r.labels[tail[0]], blob) << index::to_string(kind);
    EXPECT_NE(r.labels[tail[0]], r.labels[middle[0]])
        << index::to_string(kind);
    expect_oracle_parity(session, index::to_string(kind));
  }
}

TEST(IncrementalSplitSites, PinnedSeedsMatchOracle) {
  // Seeds that catch a cut grouping read back after the seed search has
  // reused its union-find: unrelated cut sites merge into one group and a
  // split cluster's pieces stay under one label.
  struct Pin {
    std::uint64_t seed;
    IndexKind kind;
    bool inserts;
  };
  for (const Pin& pin : {Pin{1216, IndexKind::kAuto, false},
                         Pin{2008, IndexKind::kAuto, false},
                         Pin{736, IndexKind::kAuto, true},
                         Pin{736, IndexKind::kBruteForce, true},
                         Pin{736, IndexKind::kDenseBox, true}}) {
    if (!cut_rounds_match_oracle(pin.seed, pin.kind, pin.inserts)) return;
  }
}

TEST(IncrementalSoak, DiscWithChainsCutsMatchOracle) {
  for (std::uint64_t seed = 1000; seed < 1150; ++seed) {
    const bool inserts = seed % 2 == 1;
    if (!cut_rounds_match_oracle(seed, IndexKind::kAuto, inserts)) return;
  }
}

// ---------------------------------------------------------------------------
// Error contract: every invalid call throws and leaves the session intact.
// ---------------------------------------------------------------------------

TEST(IncrementalErrors, MutationsNeedACurrentResult) {
  const auto base = data::taxi_gps(100, 119);
  Clusterer session(base.points, Options());
  EXPECT_THROW((void)session.insert(base.points), std::logic_error);
  EXPECT_THROW(session.remove(std::vector<std::uint32_t>{0}),
               std::logic_error);
  EXPECT_THROW((void)session.result(), std::logic_error);
  (void)session.run(0.3f, 4);
  (void)session.result();  // now fine
  (void)session.take_result();
  EXPECT_THROW((void)session.insert(base.points), std::logic_error);
  EXPECT_THROW((void)session.result(), std::logic_error);
  (void)session.run(0.3f, 4);  // a rerun restores the baseline
  (void)session.insert(std::vector<Vec3>{{0.5f, 0.5f, 0.0f}});
  expect_oracle_parity(session, "recovered after take_result");
}

TEST(IncrementalErrors, EarlyExitSessionsRefuseToStream) {
  const auto base = data::taxi_gps(300, 120);
  Clusterer session(base.points, Options()
                                     .with_backend(IndexKind::kPointBvh)
                                     .with_early_exit(true));
  (void)session.run(0.3f, 6);  // caches CAPPED counts
  EXPECT_THROW((void)session.insert(std::vector<Vec3>{{0, 0, 0}}),
               std::logic_error);
}

TEST(IncrementalParity, TriangleSessionAdvanceMatchesFreshRecluster) {
  // §VI-C sessions stream through the same path as every backend: the
  // triangle scene absorbs appended points into its delta tail until the
  // mutation budget (max(64, live/8) = 75 slots here) forces a rebuild.
  const auto base = data::taxi_gps(600, 121);
  const auto extra = data::taxi_gps(48, 124);
  Clusterer session(base.points,
                    Options().with_backend(IndexKind::kTriangles));
  (void)session.run(0.3f, 6);
  const std::span<const Vec3> add(extra.points);
  for (std::size_t step = 0; step < 6; ++step) {
    (void)session.advance(add.subspan(step * 8, 8), 8);
    EXPECT_TRUE(session.result().stats.incremental);
    EXPECT_EQ(session.result().stats.index_rebuilt, step == 4) << step;
    EXPECT_EQ(session.backend(), IndexKind::kTriangles);
    expect_oracle_parity(session, "triangles advance");
  }
}

TEST(IncrementalErrors, InvalidBatchesThrowAndLeaveTheSessionUntouched) {
  const auto base = data::taxi_gps(200, 122);
  Clusterer session(base.points, Options());
  (void)session.run(0.3f, 5);
  const ClusterResult snapshot = session.result();

  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW((void)session.insert(std::vector<Vec3>{{nan, 0, 0}}),
               std::invalid_argument);
  EXPECT_THROW(session.remove(std::vector<std::uint32_t>{200}),
               std::invalid_argument);  // out of range
  EXPECT_THROW(session.remove(std::vector<std::uint32_t>{3, 7, 3}),
               std::invalid_argument);  // duplicate within the batch
  session.remove(std::vector<std::uint32_t>{11});
  EXPECT_THROW(session.remove(std::vector<std::uint32_t>{11}),
               std::invalid_argument);  // already removed
  EXPECT_THROW((void)session.advance({}, session.live_count() + 1),
               std::invalid_argument);  // expire > live
  EXPECT_THROW((void)session.is_live(12345), std::invalid_argument);
  EXPECT_THROW((void)session.query_neighbors(std::uint32_t{11}, 0.3f),
               std::invalid_argument);  // removed slot

  // The failed calls changed nothing beyond the one successful removal.
  EXPECT_EQ(session.size(), base.size());
  EXPECT_EQ(session.live_count(), base.size() - 1);
  for (std::size_t i = 0; i < snapshot.labels.size(); ++i) {
    if (i == 11) continue;
    EXPECT_EQ(session.result().is_core[i] != 0,
              snapshot.is_core[i] != 0 &&
                  session.result().neighbor_counts[i] + 1 >= 5);
  }
  expect_oracle_parity(session, "after rejected batches");
}

TEST(IncrementalErrors, NoOpMutationsAreFree) {
  const auto base = data::taxi_gps(150, 123);
  Clusterer session(base.points, Options());
  (void)session.run(0.3f, 5);
  const std::uint32_t clusters = session.result().cluster_count;
  EXPECT_EQ(session.insert({}), base.size());
  session.remove({});
  EXPECT_EQ(session.advance({}, 0), base.size());
  EXPECT_EQ(session.result().cluster_count, clusters);
  EXPECT_FALSE(session.result().stats.incremental);
}

}  // namespace
}  // namespace rtd
