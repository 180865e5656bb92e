// core::LabelRepair without a session: each case builds the state a
// mutation batch leaves behind by hand — a sequential_dbscan result,
// brute-force counts, a kBvhRt index and the rows index_phase1_remove /
// index_phase1_insert capture — runs one repair, and compares the repaired
// clustering of the live points with a fresh sequential_dbscan over them
// (dbscan/equivalence.hpp), plus the ids the repair must keep stable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/clusterer.hpp"
#include "core/label_repair.hpp"
#include "dbscan/engine.hpp"
#include "dbscan/equivalence.hpp"
#include "dbscan/sequential.hpp"

namespace rtd {
namespace {

using geom::Vec3;
using index::IndexKind;

/// The session state around one batch.
struct World {
  std::vector<Vec3> pts;
  std::vector<std::uint8_t> live;  ///< empty = every slot live
  std::vector<std::uint32_t> counts;
  std::unique_ptr<index::NeighborIndex> index;
  ClusterResult result;
  std::vector<std::uint32_t> removed, rem_ids, rem_starts;
  std::vector<std::uint32_t> ins_ids, ins_starts;
};

std::uint32_t brute_count(std::span<const Vec3> pts,
                          std::span<const std::uint8_t> live, std::size_t i,
                          float eps) {
  std::uint32_t count = 0;
  for (std::size_t j = 0; j < pts.size(); ++j) {
    if (j != i && live[j] && geom::distance_squared(pts[i], pts[j]) <=
                                 eps * eps) {
      ++count;
    }
  }
  return count;
}

/// `pts` clustered from scratch at (eps, min_pts), indexed on kBvhRt.
World clustered(std::vector<Vec3> pts, float eps, std::uint32_t min_pts) {
  World w;
  w.pts = std::move(pts);
  w.pts.reserve(w.pts.size() + 64);  // inserts append in place
  const dbscan::Clustering c = dbscan::sequential_dbscan(
      w.pts, dbscan::Params{eps, min_pts, IndexKind::kBruteForce});
  const std::vector<std::uint8_t> all(w.pts.size(), 1);
  for (std::size_t i = 0; i < w.pts.size(); ++i) {
    w.counts.push_back(brute_count(w.pts, all, i, eps));
  }
  w.index = index::make_index(w.pts, eps, IndexKind::kBvhRt);
  ClusterResult& r = w.result;
  r.eps = eps;
  r.min_pts = min_pts;
  r.labels = c.labels;
  r.is_core = c.is_core;
  r.cluster_count = c.cluster_count;
  r.neighbor_counts = w.counts;
  r.membership.assign(r.labels, r.cluster_count);
  return w;
}

/// Apply one batch the way Clusterer::mutate does — capture the removed
/// rows, mask, absorb, capture the inserted rows — then repair.
rt::TraversalStats apply(World& w, std::vector<std::uint32_t> remove,
                         std::span<const Vec3> add) {
  const float eps = w.result.eps;
  std::sort(remove.begin(), remove.end());
  w.removed = remove;
  if (!remove.empty()) {
    if (w.live.empty()) w.live.assign(w.pts.size(), 1);
    (void)dbscan::index_phase1_remove(*w.index, eps, remove, w.counts,
                                      w.rem_ids, w.rem_starts);
    for (const std::uint32_t id : remove) w.live[id] = 0;
    EXPECT_TRUE(w.index->try_remove(remove));
  }
  const std::size_t first_new = w.pts.size();
  if (!add.empty()) {
    w.pts.insert(w.pts.end(), add.begin(), add.end());
    if (!w.live.empty()) w.live.resize(w.pts.size(), 1);
    EXPECT_TRUE(w.index->try_insert(w.pts, first_new));
    (void)dbscan::index_phase1_insert(*w.index, eps, first_new, w.counts,
                                      w.ins_ids, w.ins_starts);
  }
  for (const std::uint32_t id : remove) w.counts[id] = 0;

  core::RepairBatch batch;
  batch.points = w.pts;
  batch.live = w.live;
  batch.counts = w.counts;
  batch.index = w.index.get();
  batch.removed = w.removed;
  batch.removed_nbr_ids = w.rem_ids;
  batch.removed_nbr_starts = w.rem_starts;
  batch.first_new = first_new;
  batch.inserted_nbr_ids = w.ins_ids;
  batch.inserted_nbr_starts = w.ins_starts;
  core::LabelRepair repair;
  return repair.run(batch, w.result);
}

bool is_live(const World& w, std::size_t i) {
  return w.live.empty() || w.live[i] != 0;
}

/// The repaired result is coherent (counts, membership, dead slots) and,
/// over the live points, equivalent to a fresh sequential_dbscan.
void expect_matches_fresh_recluster(const World& w) {
  const ClusterResult& r = w.result;
  const std::size_t n = w.pts.size();
  ASSERT_EQ(r.labels.size(), n);
  ASSERT_EQ(r.is_core.size(), n);
  ASSERT_EQ(r.neighbor_counts.size(), n);
  ASSERT_EQ(r.membership.slot_count(), n);
  ASSERT_EQ(r.membership.cluster_count(), r.cluster_count);
  const std::vector<std::uint8_t> mask =
      w.live.empty() ? std::vector<std::uint8_t>(n, 1) : w.live;
  for (std::int32_t g = kNoise; g < static_cast<std::int32_t>(r.cluster_count);
       ++g) {
    const auto group = g == kNoise ? r.noise() : r.members_of(g);
    if (g != kNoise) {
      EXPECT_FALSE(group.empty()) << "id " << g << " unused";
    }
    for (const std::uint32_t m : group) {
      EXPECT_EQ(r.labels[m], g) << "slot " << m << " in group " << g;
    }
  }

  std::vector<Vec3> live_pts;
  dbscan::Clustering view;
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_live(w, i)) {
      EXPECT_EQ(r.labels[i], kNoise) << "dead slot " << i;
      EXPECT_EQ(r.is_core[i], 0) << "dead slot " << i;
      EXPECT_EQ(r.neighbor_counts[i], 0u) << "dead slot " << i;
      continue;
    }
    EXPECT_EQ(r.neighbor_counts[i], brute_count(w.pts, mask, i, r.eps))
        << "slot " << i;
    live_pts.push_back(w.pts[i]);
    view.labels.push_back(r.labels[i]);
    view.is_core.push_back(r.is_core[i]);
  }
  view.cluster_count = r.cluster_count;
  const dbscan::Params params{r.eps, r.min_pts, IndexKind::kBruteForce};
  const dbscan::Clustering fresh = dbscan::sequential_dbscan(live_pts, params);
  EXPECT_EQ(view.is_core, fresh.is_core);
  EXPECT_EQ(view.cluster_count, fresh.cluster_count);
  const auto eq = dbscan::check_equivalent(live_pts, params, fresh, view);
  EXPECT_TRUE(eq.equivalent) << eq.reason;
}

/// A rows x cols block of points at `pitch`, its low corner at (x0, y0).
void add_block(std::vector<Vec3>& pts, float x0, float y0, int rows, int cols,
               float pitch) {
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      pts.push_back({x0 + pitch * static_cast<float>(c),
                     y0 + pitch * static_cast<float>(r), 0.0f});
    }
  }
}

TEST(LabelRepair, ChainCutInTwo) {
  // 30 points along +x at pitch 0.4 (ε 0.5, minPts 3): the interior points
  // are cores.  Removing slot 15 demotes 14 and 16; the cores on either
  // side no longer reach each other, so the one cluster splits in two.
  std::vector<Vec3> pts;
  add_block(pts, 0.0f, 0.0f, 1, 30, 0.4f);
  World w = clustered(pts, 0.5f, 3);
  ASSERT_EQ(w.result.cluster_count, 1u);
  (void)apply(w, {15}, {});
  expect_matches_fresh_recluster(w);
  const ClusterResult& r = w.result;
  ASSERT_EQ(r.cluster_count, 2u);
  for (std::size_t i = 0; i < 15; ++i) EXPECT_EQ(r.labels[i], r.labels[0]);
  for (std::size_t i = 16; i < 30; ++i) EXPECT_EQ(r.labels[i], r.labels[29]);
  EXPECT_NE(r.labels[0], r.labels[29]);
}

TEST(LabelRepair, TwoCutsOnOneChainReclusterTheCluster) {
  // A 10 x 10 blob at pitch 0.3, then a chain along +x at pitch 0.4
  // (ε 1, minPts 3): cut A (3 points), middle (6), cut B (3), tail (30).
  // Each cut proves a split with a different residual (the blob at A, the
  // tail at B), so the second split site re-clusters the whole cluster:
  // its id is freed and the three pieces take ids in slot order.
  std::vector<Vec3> pts;
  add_block(pts, 0.0f, 0.0f, 10, 10, 0.3f);
  std::vector<std::uint32_t> cuts;
  std::vector<std::uint32_t> middle;
  std::vector<std::uint32_t> tail;
  for (int k = 0; k < 42; ++k) {
    const auto slot = static_cast<std::uint32_t>(pts.size());
    pts.push_back({2.7f + 0.4f * static_cast<float>(k + 1), 1.35f, 0.0f});
    (k < 3 || (k >= 9 && k < 12) ? cuts : k < 9 ? middle : tail)
        .push_back(slot);
  }
  World w = clustered(pts, 1.0f, 3);
  ASSERT_EQ(w.result.cluster_count, 1u);
  (void)apply(w, cuts, {});
  expect_matches_fresh_recluster(w);
  const ClusterResult& r = w.result;
  ASSERT_EQ(r.cluster_count, 3u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(r.labels[i], 0);
  for (const std::uint32_t m : middle) EXPECT_EQ(r.labels[m], 1);
  for (const std::uint32_t t : tail) EXPECT_EQ(r.labels[t], 2);
}

TEST(LabelRepair, CutReroutedAroundAHoleKeepsEveryId) {
  // Three 8 x 8 blobs at pitch 0.3 (ε 0.5, minPts 4), ids 0, 1, 2 in slot
  // order.  A 2 x 2 hole in the middle blob leaves every path around it:
  // the blob stays whole, and no live point changes its label.
  std::vector<Vec3> pts;
  add_block(pts, 0.0f, 0.0f, 8, 8, 0.3f);
  add_block(pts, 10.0f, 0.0f, 8, 8, 0.3f);
  add_block(pts, 20.0f, 0.0f, 8, 8, 0.3f);
  World w = clustered(pts, 0.5f, 4);
  ASSERT_EQ(w.result.cluster_count, 3u);
  const std::vector<std::int32_t> before = w.result.labels;
  // Rows 3-4, columns 3-4 of the middle blob.
  const std::vector<std::uint32_t> hole = {64 + 27, 64 + 28, 64 + 35, 64 + 36};
  const rt::TraversalStats work = apply(w, hole, {});
  expect_matches_fresh_recluster(w);
  const ClusterResult& r = w.result;
  EXPECT_EQ(r.cluster_count, 3u);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (is_live(w, i)) {
      EXPECT_EQ(r.labels[i], before[i]) << "slot " << i;
    }
  }
  // The seeds around the hole prove it intact by distance alone, and the
  // removed cores replay their captured rows: no query at all.
  EXPECT_EQ(work.rays, 0u);
}

TEST(LabelRepair, BridgingInsertKeepsTheLargerClustersId) {
  // A 3 x 3 blob (id 0), a 5 x 5 blob (id 1) and a 4 x 4 blob (id 2) at
  // pitch 0.3 (ε 0.5, minPts 4).  Eleven inserted cores at pitch 0.2 bridge
  // the first two: the merged cluster keeps the larger side's id 1, and the
  // highest id moves down into the freed id 0.
  std::vector<Vec3> pts;
  add_block(pts, 0.0f, 0.0f, 3, 3, 0.3f);
  add_block(pts, 3.0f, -0.3f, 5, 5, 0.3f);
  add_block(pts, 20.0f, 0.0f, 4, 4, 0.3f);
  World w = clustered(pts, 0.5f, 4);
  ASSERT_EQ(w.result.cluster_count, 3u);
  ASSERT_EQ(w.result.labels[0], 0);
  ASSERT_EQ(w.result.labels[9], 1);
  ASSERT_EQ(w.result.labels[34], 2);
  std::vector<Vec3> bridge;
  for (int k = 0; k < 11; ++k) {
    bridge.push_back({0.8f + 0.2f * static_cast<float>(k), 0.3f, 0.0f});
  }
  (void)apply(w, {}, bridge);
  expect_matches_fresh_recluster(w);
  const ClusterResult& r = w.result;
  ASSERT_EQ(r.cluster_count, 2u);
  for (std::size_t i = 0; i < 34; ++i) EXPECT_EQ(r.labels[i], 1) << i;
  for (std::size_t i = 34; i < 50; ++i) EXPECT_EQ(r.labels[i], 0) << i;
  for (std::size_t i = 50; i < r.labels.size(); ++i) {
    EXPECT_EQ(r.labels[i], 1) << i;
  }
}

}  // namespace
}  // namespace rtd
