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
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "core/api.hpp"
#include "core/clusterer.hpp"
#include "data/generators.hpp"
#include "dbscan/equivalence.hpp"

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
  // Above rt::kWideBvhMinPrims so kWide/kQuantized exercise the SoA walk.
  const auto base = data::taxi_gps(6000, 104);
  const auto extra = data::taxi_gps(200, 105);
  for (const IndexKind kind : {IndexKind::kPointBvh, IndexKind::kBvhRt}) {
    for (const rt::TraversalWidth width :
         {rt::TraversalWidth::kBinary, rt::TraversalWidth::kWide,
          rt::TraversalWidth::kWideQuantized}) {
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

TEST(IncrementalMaintenance, SnapshotsAreIsolatedFromMutations) {
  const auto base = data::taxi_gps(600, 116);
  Clusterer session(base.points, Options().with_backend(IndexKind::kBvhRt));
  (void)session.run(0.3f, 6);
  const auto before = session.snapshot();
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->size(), base.size());

  const auto probe = Vec3{0.5f, 0.5f, 0.0f};
  const auto before_ids = before->query_neighbors(probe);
  (void)session.insert(data::taxi_gps(80, 117).points);
  session.remove(std::vector<std::uint32_t>{0, 10, 20});

  // The old epoch answers exactly as before the mutations...
  EXPECT_EQ(before->size(), base.size());
  EXPECT_EQ(before->query_neighbors(probe), before_ids);
  // ...and a fresh snapshot serves the post-mutation live set.
  const auto after = session.snapshot();
  EXPECT_EQ(after->size(), session.size());
  const auto after_ids = after->query_neighbors(probe);
  std::size_t live_hits = 0;
  const float eps2 = session.result().eps * session.result().eps;
  for (std::uint32_t j = 0; j < session.size(); ++j) {
    if (session.is_live(j) &&
        geom::distance_squared(probe, session.points()[j]) <= eps2) {
      ++live_hits;
    }
  }
  EXPECT_EQ(after_ids.size(), live_hits);
  expect_oracle_parity(session, "mutations under snapshots");
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

TEST(IncrementalErrors, TriangleSessionsRefuseToStream) {
  const auto base = data::taxi_gps(50, 121);
  Options o;
  o.geometry = core::GeometryMode::kTriangles;
  Clusterer session(base.points, o);
  EXPECT_THROW((void)session.insert(std::vector<Vec3>{{0, 0, 0}}),
               std::logic_error);
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
