// Cross-backend parity suite for the NeighborIndex layer.
//
// The contract (docs/ARCHITECTURE.md) promises that every backend returns
// the IDENTICAL neighbor set — ε-inclusive boundaries, self excluded by id,
// duplicates reported — so the DBSCAN engine can swap backends freely.
// These tests enforce set parity against a hand-rolled brute-force oracle
// on generated and degenerate datasets, packet parity (the packet entries
// against the single-query virtuals, counters included; the buffered pair
// entry against the visitor entry, d² bit for bit), and clustering
// equivalence of every DBSCAN variant across every backend.
#include "index/neighbor_index.hpp"

#include <gtest/gtest.h>

#include <limits>

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/api.hpp"
#include "data/generators.hpp"
#include "dbscan/engine.hpp"
#include "dbscan/fdbscan.hpp"
#include "dbscan/fdbscan_densebox.hpp"
#include "dbscan/gdbscan.hpp"
#include "dbscan/sequential.hpp"
#include "dbscan_test_util.hpp"
#include "index/bvh_rt_index.hpp"
#include "index/grid_index.hpp"
#include "index/point_tree.hpp"
#include "team_probe.hpp"

namespace rtd::index {
namespace {

using dbscan::Params;
using geom::Vec3;

std::vector<std::unique_ptr<NeighborIndex>> all_backends(
    std::span<const Vec3> points, float eps) {
  std::vector<std::unique_ptr<NeighborIndex>> out;
  for (const IndexKind kind : kAllIndexKinds) {
    out.push_back(make_index(points, eps, kind));
  }
  return out;
}

/// The oracle: ε-inclusive, self excluded by id.
std::vector<std::uint32_t> brute_neighbors(std::span<const Vec3> points,
                                           const Vec3& center, float eps,
                                           std::uint32_t self) {
  std::vector<std::uint32_t> ids;
  const float eps2 = eps * eps;
  for (std::uint32_t j = 0; j < points.size(); ++j) {
    if (j != self && geom::distance_squared(center, points[j]) <= eps2) {
      ids.push_back(j);
    }
  }
  return ids;
}

std::vector<std::uint32_t> sorted_neighbors(const NeighborIndex& index,
                                            const Vec3& center, float eps,
                                            std::uint32_t self) {
  std::vector<std::uint32_t> ids;
  rt::TraversalStats stats;
  index.query_sphere(center, eps, self,
                     [&](std::uint32_t j) { ids.push_back(j); }, stats);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Degenerate dataset: colinear points on the x-axis, several duplicated.
std::vector<Vec3> colinear_with_duplicates() {
  std::vector<Vec3> pts;
  for (int i = 0; i < 120; ++i) {
    pts.push_back(Vec3::xy(static_cast<float>(i) * 0.25f, 0.0f));
  }
  for (int d = 0; d < 30; ++d) {
    pts.push_back(Vec3::xy(7.5f, 0.0f));  // 30 extra copies of one point
  }
  return pts;
}

struct ParityCase {
  const char* name;
  std::vector<Vec3> points;
  float eps;
};

std::vector<ParityCase> parity_cases() {
  std::vector<ParityCase> cases;
  cases.push_back({"uniform", data::uniform_cube(1500, 20.0f, 3, 101).points,
                   0.9f});
  cases.push_back(
      {"blobs", data::gaussian_blobs(1500, 3, 0.5f, 10.0f, 3, 102).points,
       0.4f});
  cases.push_back({"colinear_dups", colinear_with_duplicates(), 0.6f});
  cases.push_back({"tiny", testutil::two_squares_and_outlier(), 1.5f});
  return cases;
}

TEST(NeighborIndexParity, AllBackendsReturnIdenticalNeighborSets) {
  for (const auto& c : parity_cases()) {
    const auto backends = all_backends(c.points, c.eps);
    for (std::uint32_t q = 0; q < c.points.size();
         q += std::max<std::uint32_t>(
             1, static_cast<std::uint32_t>(c.points.size() / 97))) {
      const auto expected =
          brute_neighbors(c.points, c.points[q], c.eps, q);
      for (const auto& index : backends) {
        EXPECT_EQ(sorted_neighbors(*index, c.points[q], c.eps, q), expected)
            << c.name << ": backend " << index->name() << ", query " << q;
      }
    }
  }
}

TEST(NeighborIndexParity, OffDatasetCentersWithNoSelf) {
  const auto c = parity_cases()[0];
  const auto backends = all_backends(c.points, c.eps);
  const Vec3 centers[] = {{0.0f, 0.0f, 0.0f},
                          {10.0f, 10.0f, 10.0f},
                          {-5.0f, 3.0f, 19.0f},
                          {100.0f, 100.0f, 100.0f}};  // far outside bounds
  for (const auto& center : centers) {
    const auto expected = brute_neighbors(c.points, center, c.eps, kNoSelf);
    for (const auto& index : backends) {
      EXPECT_EQ(sorted_neighbors(*index, center, c.eps, kNoSelf), expected)
          << index->name();
    }
  }
}

TEST(NeighborIndexParity, EpsilonBoundaryIsInclusive) {
  // Exactly representable distances: a point at distance exactly eps IS a
  // neighbor (|N_eps| uses <=), on every backend.
  const std::vector<Vec3> pts{{0, 0, 0}, {1, 0, 0}, {0, 5, 0}, {3, 9, 0}};
  for (const auto& index : all_backends(pts, 1.0f)) {
    EXPECT_EQ(sorted_neighbors(*index, pts[0], 1.0f, 0),
              (std::vector<std::uint32_t>{1}))
        << index->name();
  }
  // 3-4-5 triangle: distance exactly 5.
  const std::vector<Vec3> tri{{0, 0, 0}, {3, 4, 0}, {50, 0, 0}};
  for (const auto& index : all_backends(tri, 5.0f)) {
    EXPECT_EQ(sorted_neighbors(*index, tri[0], 5.0f, 0),
              (std::vector<std::uint32_t>{1}))
        << index->name();
  }
}

TEST(NeighborIndexParity, DuplicatePointsExcludedByIdOnly) {
  // Five coincident points: a self-query sees the other four (distance 0),
  // an off-dataset query sees all five.
  const std::vector<Vec3> pts(5, Vec3{2.0f, 2.0f, 2.0f});
  for (const auto& index : all_backends(pts, 0.5f)) {
    EXPECT_EQ(sorted_neighbors(*index, pts[2], 0.5f, 2),
              (std::vector<std::uint32_t>{0, 1, 3, 4}))
        << index->name();
    EXPECT_EQ(sorted_neighbors(*index, pts[0], 0.5f, kNoSelf),
              (std::vector<std::uint32_t>{0, 1, 2, 3, 4}))
        << index->name();
  }
}

TEST(NeighborIndex, QueryCountMatchesQuerySphere) {
  const auto c = parity_cases()[1];
  const auto backends = all_backends(c.points, c.eps);
  for (std::uint32_t q = 0; q < c.points.size(); q += 131) {
    const auto expected = static_cast<std::uint32_t>(
        brute_neighbors(c.points, c.points[q], c.eps, q).size());
    for (const auto& index : backends) {
      rt::TraversalStats stats;
      EXPECT_EQ(index->query_count(c.points[q], c.eps, q, stats), expected)
          << index->name();
    }
  }
}

TEST(NeighborIndex, QueryCountHonorsStopAtHint) {
  // Dense blob: every point has many neighbors.  A capped count must return
  // at least the cap when the true count reaches it (backends that cannot
  // terminate — the RT scene — return the exact count, which also
  // satisfies the contract), and the exact count otherwise.
  const auto dataset = data::single_blob(2000, 0.5f, 33);
  const float eps = 0.4f;
  for (const auto& index : all_backends(dataset.points, eps)) {
    for (const std::uint32_t q : {0u, 500u, 1999u}) {
      rt::TraversalStats stats;
      const std::uint32_t full =
          index->query_count(dataset.points[q], eps, q, stats);
      const std::uint32_t capped =
          index->query_count(dataset.points[q], eps, q, stats, 3);
      if (full >= 3) {
        EXPECT_GE(capped, 3u) << index->name();
        EXPECT_LE(capped, full) << index->name();
      } else {
        EXPECT_EQ(capped, full) << index->name();
      }
    }
  }
}

TEST(NeighborIndex, EarlyExitSavesWorkWhereTraversalCanStop) {
  const auto dataset = data::single_blob(4000, 0.5f, 34);
  const float eps = 0.5f;
  for (const IndexKind kind :
       {IndexKind::kBruteForce, IndexKind::kGrid, IndexKind::kPointBvh}) {
    const auto index = make_index(dataset.points, eps, kind);
    rt::TraversalStats full_stats;
    rt::TraversalStats capped_stats;
    for (std::uint32_t q = 0; q < 200; ++q) {
      (void)index->query_count(dataset.points[q], eps, q, full_stats);
      (void)index->query_count(dataset.points[q], eps, q, capped_stats, 5);
    }
    EXPECT_LT(capped_stats.isect_calls, full_stats.isect_calls / 2)
        << index->name();
  }
}

TEST(NeighborIndex, QueryBoxParity) {
  const auto c = parity_cases()[0];
  const auto backends = all_backends(c.points, c.eps);
  const geom::Aabb boxes[] = {
      {{2, 2, 2}, {6, 7, 8}},
      {{-10, -10, -10}, {30, 30, 30}},  // everything
      {{19, 19, 19}, {19.5f, 19.5f, 19.5f}},
  };
  for (const auto& box : boxes) {
    std::vector<std::uint32_t> expected;
    for (std::uint32_t j = 0; j < c.points.size(); ++j) {
      if (box.contains(c.points[j])) expected.push_back(j);
    }
    for (const auto& index : backends) {
      std::vector<std::uint32_t> ids;
      rt::TraversalStats stats;
      index->query_box(box, [&](std::uint32_t j) { ids.push_back(j); },
                       stats);
      std::sort(ids.begin(), ids.end());
      EXPECT_EQ(ids, expected) << index->name();
    }
  }
}

TEST(NeighborIndex, QueryAllVisitsEveryPairOnce) {
  const auto dataset = data::taxi_gps(800, 41);
  const float eps = 0.3f;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> expected;
  for (std::uint32_t i = 0; i < dataset.points.size(); ++i) {
    for (const auto j :
         brute_neighbors(dataset.points, dataset.points[i], eps, i)) {
      expected.emplace_back(i, j);
    }
  }
  std::sort(expected.begin(), expected.end());
  for (const auto& index : all_backends(dataset.points, eps)) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    const rt::LaunchStats stats = index->query_all(
        eps,
        [&](std::uint32_t i, std::uint32_t j) { pairs.emplace_back(i, j); },
        /*threads=*/1);
    std::sort(pairs.begin(), pairs.end());
    EXPECT_EQ(pairs, expected) << index->name();
    EXPECT_EQ(stats.work.rays, dataset.points.size()) << index->name();
  }
}

TEST(DeltaTail, CandidatesCoverEveryTailIdOnceAcrossRebuilds) {
  // Uneven append batches drive the tail past both re-index triggers
  // (kResidue, then indexed / kResidueShare once the indexed tail passes
  // kResidue * kResidueShare), and past index::PointTree::kWideMinPoints, so
  // the tail tree walks both traversal layouts.  After each append,
  // every tail id must surface exactly once for a box holding all points,
  // no id below the tail may surface, and a small box must yield a
  // superset of the tail points inside it.
  constexpr std::size_t kFirst = 500;
  constexpr std::size_t kLongTail =
      DeltaTail::kResidue * DeltaTail::kResidueShare * 3 / 2;
  const auto pts = data::uniform_cube(kFirst + kLongTail, 20.0f, 3, 107).points;
  const std::span<const Vec3> all(pts);
  geom::Aabb everything;
  for (const Vec3& p : all) everything.grow(p);
  static_assert(kLongTail > PointTree::kWideMinPoints);
  {
    DeltaTail tail(kFirst);
    std::size_t size = kFirst;
    std::size_t step = 1;
    int rounds = 0;
    while (size < all.size()) {
      size = std::min(all.size(), size + step);
      step = step * 7 % 389 + 1;
      tail.absorb(all.first(size));
      ++rounds;
      const std::span<const Vec3> now = all.first(size);
      rt::TraversalStats stats;
      std::vector<int> seen(size, 0);
      tail.for_each_candidate(now, everything, stats, [&](std::uint32_t j) {
        EXPECT_LT(j, size);
        if (j < size) ++seen[j];
        return rt::TraversalControl::kContinue;
      });
      for (std::size_t j = 0; j < size; ++j) {
        ASSERT_EQ(seen[j], j < kFirst ? 0 : 1)
            << "id " << j << " after " << size << " points";
      }
      const geom::Aabb box = geom::Aabb::of_sphere(all[size - 1], 1.5f);
      std::vector<int> hit(size, 0);
      tail.for_each_candidate(now, box, stats, [&](std::uint32_t j) {
        if (j < size) hit[j] = 1;
        return rt::TraversalControl::kContinue;
      });
      for (std::size_t j = kFirst; j < size; ++j) {
        if (box.contains(all[j])) {
          ASSERT_EQ(hit[j], 1) << "id " << j;
        }
      }
    }
    EXPECT_GT(rounds, 20);
  }
}

TEST(NeighborIndex, RadiusConstraintsAreEnforced) {
  const auto dataset = data::taxi_gps(500, 42);
  rt::TraversalStats stats;
  const GridIndex grid(dataset.points, 0.5f);
  EXPECT_THROW(grid.query_sphere(dataset.points[0], 0.6f, 0,
                                 [](std::uint32_t) {}, stats),
               std::invalid_argument);
  // Smaller radii are fine on the grid (one-ring still covers them).
  EXPECT_NO_THROW(grid.query_sphere(dataset.points[0], 0.3f, 0,
                                    [](std::uint32_t) {}, stats));

  const BvhRtIndex rt_scene(dataset.points, 0.5f);
  EXPECT_THROW(rt_scene.query_sphere(dataset.points[0], 0.4f, 0,
                                     [](std::uint32_t) {}, stats),
               std::invalid_argument);
}

TEST(NeighborIndex, DenseBoxHandlesRadiiFarAboveBuildEps) {
  // Build with a tiny eps over spread data, then query with a radius
  // thousands of cells wide: the index must degrade to a scan (not walk an
  // astronomically large cell range) and stay exact.
  const auto dataset = data::uniform_cube(2000, 100.0f, 3, 44);
  const auto index =
      make_index(dataset.points, 0.05f, IndexKind::kDenseBox);
  const float big = 100.0f;
  const auto expected =
      brute_neighbors(dataset.points, dataset.points[0], big, 0);
  EXPECT_EQ(sorted_neighbors(*index, dataset.points[0], big, 0), expected);
  rt::TraversalStats stats;
  EXPECT_EQ(index->query_count(dataset.points[0], big, 0, stats),
            expected.size());
}

TEST(NeighborIndex, FactoryResolvesAutoAndRejectsBadEps) {
  const auto small = data::taxi_gps(100, 43);
  const auto index = make_index(small.points, 0.3f);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->kind(), IndexKind::kBvhRt);  // kAuto is the RT pipeline
  for (const float eps : {0.0f, -1.0f, std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    for (const IndexKind kind :
         {IndexKind::kAuto, IndexKind::kGrid, IndexKind::kTriangles}) {
      EXPECT_THROW(make_index(small.points, eps, kind), std::invalid_argument)
          << eps << " " << index::to_string(kind);
    }
  }
}

/// Records the team size of a parallel loop each writer hook launches on
/// the index's budget, as the tree backends' refits do.
class ThreadProbeIndex final : public NeighborIndex {
 public:
  explicit ThreadProbeIndex(std::span<const Vec3> points) : points_(points) {}

  [[nodiscard]] IndexKind kind() const override {
    return IndexKind::kBruteForce;
  }
  [[nodiscard]] std::span<const Vec3> points() const override {
    return points_;
  }
  [[nodiscard]] float build_eps() const override { return eps_; }
  [[nodiscard]] bool refittable() const override { return true; }
  void query_sphere(const Vec3&, float, std::uint32_t, NeighborVisitor,
                    rt::TraversalStats&) const override {}

  int set_eps_threads = -1;
  int remove_threads = -1;

 protected:
  std::unique_ptr<NeighborIndex> do_clone() override {
    return std::make_unique<ThreadProbeIndex>(*this);
  }
  bool do_try_set_eps(float eps) override {
    set_eps_threads = team_size();
    eps_ = eps;
    return true;
  }
  bool do_try_remove(std::span<const std::uint32_t>) override {
    remove_threads = team_size();
    return true;
  }

 private:
  [[nodiscard]] int team_size() const {
    testutil::TeamProbe team(resolve_threads(threads()));
    parallel_for(64, threads(), [&](std::size_t) { team.record(); });
    return team.team();
  }

  std::span<const Vec3> points_;
  float eps_ = 0.3f;
};

TEST(NeighborIndex, WriterOperationsRunUnderTheIndexThreadBudget) {
  // The refits behind try_set_eps and try_remove launch parallel loops:
  // they must run on the index's budget, not the caller's setting, and
  // never change the caller's setting.
  const auto pts = data::taxi_gps(64, 5).points;
  const ThreadCountGuard caller(3);
  ThreadProbeIndex probe(pts);
  probe.set_threads(1);
  EXPECT_TRUE(probe.try_set_eps(0.5f));
  EXPECT_EQ(probe.set_eps_threads, 1);
  EXPECT_TRUE(probe.try_remove(std::vector<std::uint32_t>{2, 7}));
  EXPECT_EQ(probe.remove_threads, 1);
  EXPECT_EQ(hardware_threads(), 3);
  // A clone keeps the budget; 0 keeps the caller's count.
  auto copy = probe.clone();
  EXPECT_EQ(copy->threads(), 1);
  probe.set_threads(0);
  EXPECT_TRUE(probe.try_set_eps(0.4f));
  EXPECT_EQ(probe.set_eps_threads, 3);

  // make_index hands IndexBuildOptions::threads to every backend.
  IndexBuildOptions options;
  options.threads = 2;
  for (const IndexKind kind : kAllIndexKinds) {
    EXPECT_EQ(make_index(pts, 0.3f, kind, options)->threads(), 2)
        << to_string(kind);
  }
}

TEST(NeighborIndex, ToStringParseRoundTrip) {
  for (const IndexKind kind : kAllIndexKinds) {
    const auto parsed = parse_index_kind(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(parse_index_kind("auto"), IndexKind::kAuto);
  EXPECT_EQ(parse_index_kind("nonsense"), std::nullopt);
}

// ---------------------------------------------------------------------------
// Packet entries: a packet of m ids must deliver exactly what m single
// queries deliver — the same (k, j) pairs, the same counts and the same
// summed work counters — on every backend and layout, in every index state.
// ---------------------------------------------------------------------------

using PairSet = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

void expect_same_work(const rt::TraversalStats& packet,
                      const rt::TraversalStats& single,
                      const std::string& what) {
  EXPECT_EQ(packet.rays, single.rays) << what;
  EXPECT_EQ(packet.nodes_visited, single.nodes_visited) << what;
  EXPECT_EQ(packet.aabb_tests, single.aabb_tests) << what;
  EXPECT_EQ(packet.isect_calls, single.isect_calls) << what;
}

/// The buffered entry of `packet` against the pairs the visitor entry
/// visited, in its order, and its work.
void expect_pairs_entry_parity(const NeighborIndex& index, float eps,
                               std::span<const std::uint32_t> packet,
                               const PairSet& visited,
                               const rt::TraversalStats& visited_stats,
                               const std::string& where) {
  const std::span<const Vec3> pts = index.points();
  std::vector<std::uint32_t> want_rows(packet.size(), 0);
  for (const auto& [k, j] : visited) ++want_rows[k];

  std::vector<PacketPair> buffer(visited.size() + 1);
  std::vector<std::uint32_t> rows(packet.size(), 12345u);
  rt::TraversalStats stats;
  const std::size_t found =
      index.query_pairs_packet(packet, eps, buffer, rows, stats);
  ASSERT_EQ(found, visited.size()) << where;
  for (std::size_t m = 0; m < found; ++m) {
    const auto [k, j] = visited[m];
    EXPECT_EQ(buffer[m].ray, k) << where << " pair " << m;
    EXPECT_EQ(buffer[m].neighbor, j) << where << " pair " << m;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(buffer[m].d2),
              std::bit_cast<std::uint32_t>(
                  geom::distance_squared(pts[packet[k]], pts[j])))
        << where << " pair " << m;
  }
  EXPECT_EQ(rows, want_rows) << where;
  expect_same_work(stats, visited_stats, where + " buffered");
  EXPECT_EQ(stats.anyhit_calls, visited_stats.anyhit_calls) << where;

  // A full buffer keeps the first pairs and still counts every pair.
  if (visited.empty()) return;
  std::vector<PacketPair> small(visited.size() / 2);
  std::vector<std::uint32_t> small_rows(packet.size(), 12345u);
  rt::TraversalStats small_stats;
  EXPECT_EQ(index.query_pairs_packet(packet, eps, small, small_rows,
                                     small_stats),
            visited.size())
      << where;
  EXPECT_EQ(small_rows, want_rows) << where;
  for (std::size_t m = 0; m < small.size(); ++m) {
    EXPECT_EQ(small[m].ray, buffer[m].ray) << where << " pair " << m;
    EXPECT_EQ(small[m].neighbor, buffer[m].neighbor) << where << " pair " << m;
  }
  expect_same_work(small_stats, visited_stats, where + " full buffer");
}

/// Cut `ids` into packets of 1, 2, 3, 4, 1, ... ids and check the packet
/// entries of every packet against the single-query virtuals, and the
/// buffered entry against the visitor entry: the same pairs in the same
/// order, each with geom::distance_squared's d² bit for bit, the same
/// work, and on a buffer too small for the packet the first pairs plus
/// the true pair count and rows.
void expect_packet_parity(const NeighborIndex& index, float eps,
                          std::span<const std::uint32_t> ids,
                          const std::string& what) {
  const std::span<const Vec3> pts = index.points();
  std::size_t m = 1;
  for (std::size_t pos = 0; pos < ids.size(); pos += m, m = m % 4 + 1) {
    const auto packet = ids.subspan(pos, std::min(m, ids.size() - pos));
    const std::string where = what + " " + index.name() + " packet@" +
                              std::to_string(pos) + "/" +
                              std::to_string(packet.size());

    PairSet single_pairs;
    rt::TraversalStats single_stats;
    for (std::uint32_t k = 0; k < packet.size(); ++k) {
      index.query_sphere(
          pts[packet[k]], eps, packet[k],
          [&](std::uint32_t j) { single_pairs.emplace_back(k, j); },
          single_stats);
    }
    PairSet packet_pairs;
    rt::TraversalStats packet_stats;
    index.query_sphere_packet(
        packet, eps,
        [&](std::uint32_t k, std::uint32_t j) {
          packet_pairs.emplace_back(k, j);
        },
        packet_stats);
    expect_pairs_entry_parity(index, eps, packet, packet_pairs, packet_stats,
                              where);
    std::sort(single_pairs.begin(), single_pairs.end());
    std::sort(packet_pairs.begin(), packet_pairs.end());
    EXPECT_EQ(packet_pairs, single_pairs) << where;
    expect_same_work(packet_stats, single_stats, where + " pairs");

    std::vector<std::uint32_t> single_counts;
    rt::TraversalStats single_count_stats;
    for (const std::uint32_t id : packet) {
      single_counts.push_back(
          index.query_count(pts[id], eps, id, single_count_stats));
    }
    std::vector<std::uint32_t> packet_counts(packet.size(), 12345u);
    rt::TraversalStats packet_count_stats;
    index.query_count_packet(packet, eps, packet_counts, packet_count_stats);
    EXPECT_EQ(packet_counts, single_counts) << where;
    expect_same_work(packet_count_stats, single_count_stats,
                     where + " counts");
  }
}

/// Coherent ids (a Morton-order run) followed by far-apart random ids.
std::vector<std::uint32_t> packet_probe_ids(std::span<const Vec3> points,
                                            std::uint64_t seed) {
  auto ids = dbscan::query_launch_order(points, true, 1);
  ids.resize(std::min<std::size_t>(150, ids.size()));
  Rng rng(seed);
  for (int r = 0; r < 150; ++r) {
    ids.push_back(static_cast<std::uint32_t>(
        rng.uniform() * static_cast<double>(points.size() - 1)));
  }
  return ids;
}

TEST(NeighborIndexPacket, MatchesSingleQueriesOnEveryBackend) {
  for (const auto& c : parity_cases()) {
    const auto ids = packet_probe_ids(c.points, 201);
    for (const auto& index : all_backends(c.points, c.eps)) {
      expect_packet_parity(*index, c.eps, ids, c.name);
    }
  }
  // Exactly representable boundary distances (1 and the 3-4-5 triangle):
  // the packet's exact test must stay ε-inclusive.
  const std::vector<Vec3> pts{{0, 0, 0}, {1, 0, 0}, {0, 5, 0},
                              {3, 9, 0}, {3, 4, 0}, {50, 0, 0}};
  const std::vector<std::uint32_t> all_ids{0, 1, 2, 3, 4, 5, 4, 0, 1, 2};
  for (const float eps : {1.0f, 5.0f}) {
    for (const auto& index : all_backends(pts, eps)) {
      expect_packet_parity(*index, eps, all_ids, "boundary");
      std::uint32_t counts[2] = {};
      rt::TraversalStats stats;
      index->query_count_packet(std::span(all_ids).first(2), eps, counts,
                                stats);
      EXPECT_EQ(counts[0], eps == 1.0f ? 1u : 3u) << index->name();
    }
  }
}

TEST(NeighborIndexPacket, DeadIdsMatchAfterRemovalAndMaskedRefit) {
  // Enough removals to trigger the tree backends' masked refit; the packets
  // mix dead and live ids.
  const auto pts = data::uniform_cube(3000, 20.0f, 3, 202).points;
  const float eps = 0.9f;
  std::vector<std::uint32_t> removed;
  for (std::uint32_t i = 0; i < pts.size(); i += 3) removed.push_back(i);
  const auto ids = packet_probe_ids(pts, 203);
  for (const auto& index : all_backends(pts, eps)) {
    ASSERT_TRUE(index->try_remove(removed)) << index->name();
    expect_packet_parity(*index, eps, ids, "removed");
    expect_packet_parity(*index, eps, removed, "dead ids");
  }
}

TEST(NeighborIndexPacket, DeltaTailIdsMatchAfterInsert) {
  // The appended batch includes points far outside the built scene's
  // bounds; packets mix scene ids and delta-tail ids.
  auto pts = data::uniform_cube(2500, 20.0f, 3, 204).points;
  const std::size_t built = pts.size();
  const auto extra = data::uniform_cube(400, 20.0f, 3, 205).points;
  std::vector<Vec3> all = pts;
  for (std::size_t i = 0; i < extra.size(); ++i) {
    const float shift = i % 2 == 0 ? 0.0f : 30.0f;  // half outside
    all.push_back({extra[i].x + shift, extra[i].y, extra[i].z - shift});
  }
  const float eps = 0.9f;
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 0; i < all.size(); i += 7) ids.push_back(i);
  for (auto id = static_cast<std::uint32_t>(built); id < all.size(); ++id) {
    ids.push_back(id);
  }
  int absorbed = 0;
  for (const auto& index : all_backends(pts, eps)) {
    if (!index->try_insert(all, built)) continue;  // grid / dense-box
    ++absorbed;
    if (const auto* rt_index = dynamic_cast<const BvhRtIndex*>(index.get())) {
      // The shifted tail ids trace from outside the scene's root box.
      EXPECT_FALSE(rt_index->accel().bvh().scene_bounds.contains(all.back()));
    }
    expect_packet_parity(*index, eps, ids, "tail");
  }
  EXPECT_EQ(absorbed, 4);  // four insert-capable backends
}

TEST(NeighborIndexPacket, MatchesAfterEpsRefit) {
  const auto pts = data::gaussian_blobs(3000, 4, 0.6f, 10.0f, 3, 206).points;
  const auto ids = packet_probe_ids(pts, 207);
  int refit = 0;
  for (const auto& index : all_backends(pts, 0.5f)) {
    for (const float eps : {0.8f, 0.3f}) {
      if (!index->try_set_eps(eps)) continue;  // grid / dense-box
      ++refit;
      expect_packet_parity(*index, eps, ids,
                           "refit to " + std::to_string(eps));
    }
  }
  EXPECT_EQ(refit, 8);
}

TEST(NeighborIndexPacket, KBvhRtRejectsOversizePacket) {
  const auto pts = data::uniform_cube(5000, 20.0f, 3, 208).points;
  const auto index = make_index(pts, 0.9f, IndexKind::kBvhRt);
  const std::vector<std::uint32_t> five{0, 1, 2, 3, 4};
  std::vector<std::uint32_t> counts(5);
  rt::TraversalStats stats;
  EXPECT_THROW(index->query_count_packet(five, 0.9f, counts, stats),
               std::invalid_argument);
  // The scene radius is baked in: a packet at another ε throws too.
  EXPECT_THROW(index->query_count_packet(std::span(five).first(2), 0.8f,
                                         std::span(counts).first(2), stats),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Clustering equivalence: every DBSCAN entry point produces an equivalent
// labeling (up to relabeling / legal border ties) on every backend.
// ---------------------------------------------------------------------------

TEST(NeighborIndexClustering, EngineEquivalentAcrossBackends) {
  const auto dataset = data::taxi_gps(3000, 51);
  const Params params{0.3f, 10};
  for (const IndexKind kind : kAllIndexKinds) {
    const auto index = make_index(dataset.points, params.eps, kind);
    for (const bool early_exit : {false, true}) {
      dbscan::IndexEngineOptions options;
      options.early_exit = early_exit;
      const auto run =
          dbscan::cluster_with_index(*index, params, options);
      testutil::expect_matches_reference(dataset.points, params,
                                         run.clustering, index->name());
    }
  }
}

TEST(NeighborIndexClustering, EngineEquivalentOnDegenerateData) {
  const auto pts = colinear_with_duplicates();
  const Params params{0.6f, 4};
  for (const IndexKind kind : kAllIndexKinds) {
    const auto index = make_index(pts, params.eps, kind);
    const auto run = dbscan::cluster_with_index(*index, params);
    testutil::expect_matches_reference(pts, params, run.clustering,
                                       index->name());
  }
}

TEST(NeighborIndexClustering, ClusterApiAcceptsEveryBackend) {
  const auto dataset = data::two_rings(2500, 52);
  const Params params{0.8f, 5};
  const auto reference = dbscan::sequential_dbscan(dataset.points, params);
  for (const IndexKind kind : kAllIndexKinds) {
    const ClusterResult r =
        cluster(dataset.points, params.eps, params.min_pts, kind);
    dbscan::Clustering as_clustering;
    as_clustering.labels = r.labels;
    as_clustering.is_core = r.is_core;
    as_clustering.cluster_count = r.cluster_count;
    const auto eq = dbscan::check_equivalent(dataset.points, params,
                                             reference, as_clustering);
    EXPECT_TRUE(eq.equivalent) << to_string(kind) << ": " << eq.reason;
  }
  // kAuto (the default) also resolves and clusters.
  const ClusterResult r = cluster(dataset.points, params.eps, params.min_pts);
  EXPECT_EQ(r.labels.size(), dataset.points.size());
}

TEST(NeighborIndexClustering, VariantsHonorParamsIndex) {
  const auto dataset = data::taxi_gps(2000, 53);
  Params params{0.3f, 10};

  for (const IndexKind kind : kAllIndexKinds) {
    params.index = kind;
    const auto fd = dbscan::fdbscan(dataset.points, params);
    testutil::expect_matches_reference(dataset.points, params, fd.clustering,
                                       "fdbscan");
    const auto seq = dbscan::sequential_dbscan(dataset.points, params);
    testutil::expect_matches_reference(dataset.points, params, seq,
                                       "sequential");
  }

  // G-DBSCAN and DenseBox accept a substituted backend too (spot-check one
  // each; their kAuto defaults are covered by their own suites).
  params.index = IndexKind::kGrid;
  const auto gd = dbscan::gdbscan(dataset.points, params);
  testutil::expect_matches_reference(dataset.points, params, gd.clustering,
                                     "gdbscan+grid");
  const auto db = dbscan::fdbscan_densebox(dataset.points, params);
  testutil::expect_matches_reference(dataset.points, params, db.clustering,
                                     "densebox+grid");
}

}  // namespace
}  // namespace rtd::index
