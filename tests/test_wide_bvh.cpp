// Wide (8-ary) BVH: collapse validation, binary-vs-wide traversal parity,
// leaf-collapse edge cases, refit, and wide-vs-binary clustering parity
// through every BVH-backed variant and backend.
#include "rt/wide_bvh.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "core/api.hpp"
#include "core/rt_dbscan.hpp"
#include "data/generators.hpp"
#include "dbscan/engine.hpp"
#include "dbscan/fdbscan.hpp"
#include "dbscan_test_util.hpp"
#include "index/bvh_rt_index.hpp"
#include "index/point_bvh_index.hpp"
#include "rt/scene.hpp"
#include "rt/traversal.hpp"

namespace rtd::rt {
namespace {

using geom::Aabb;
using geom::Ray;
using geom::Vec3;

std::vector<Aabb> sphere_bounds(std::span<const Vec3> points, float radius) {
  std::vector<Aabb> bounds;
  bounds.reserve(points.size());
  for (const auto& p : points) {
    bounds.push_back(Aabb::of_sphere(p, radius));
  }
  return bounds;
}

template <typename BvhT>
std::vector<std::uint32_t> ray_candidates(const BvhT& bvh, const Ray& ray,
                                          TraversalStats& stats) {
  std::vector<std::uint32_t> ids;
  traverse(
      bvh, ray,
      [&](std::uint32_t prim) {
        ids.push_back(prim);
        return TraversalControl::kContinue;
      },
      stats);
  std::sort(ids.begin(), ids.end());
  return ids;
}

template <typename BvhT>
std::vector<std::uint32_t> overlap_candidates(const BvhT& bvh,
                                              const Aabb& query,
                                              TraversalStats& stats) {
  std::vector<std::uint32_t> ids;
  traverse_overlap(
      bvh, query,
      [&](std::uint32_t prim) {
        ids.push_back(prim);
        return TraversalControl::kContinue;
      },
      stats);
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool is_subset(const std::vector<std::uint32_t>& sub,
               const std::vector<std::uint32_t>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

std::vector<std::uint32_t> neighbor_set(const index::NeighborIndex& idx,
                                        const Vec3& center, float eps,
                                        std::uint32_t self) {
  std::vector<std::uint32_t> ids;
  TraversalStats stats;
  idx.query_sphere(center, eps, self,
                   [&](std::uint32_t j) { ids.push_back(j); }, stats);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The candidate contract of the wide walk: a SUPERSET of the binary
/// walk's candidates (its leaf lanes absorb whole subtrees), and after the
/// exact per-primitive test both reduce to the same set.
template <typename ExactTest>
void expect_candidate_contract(const std::vector<std::uint32_t>& wide_ids,
                               const std::vector<std::uint32_t>& binary_ids,
                               ExactTest&& exact, const char* what) {
  EXPECT_TRUE(is_subset(binary_ids, wide_ids)) << what;
  std::vector<std::uint32_t> wide_exact;
  for (const auto id : wide_ids) {
    if (exact(id)) wide_exact.push_back(id);
  }
  std::vector<std::uint32_t> binary_exact;
  for (const auto id : binary_ids) {
    if (exact(id)) binary_exact.push_back(id);
  }
  EXPECT_EQ(wide_exact, binary_exact) << what;
}

TEST(WideBvh, CollapseValidatesOnSerialAndParallelBuilds) {
  const auto dataset = data::taxi_gps(4000, 7);
  const auto bounds = sphere_bounds(dataset.points, 0.3f);
  for (const bool parallel : {true, false}) {
    BuildOptions opts;
    opts.parallel = parallel;
    const Bvh binary = build_bvh(bounds, opts);
    ASSERT_EQ(binary.validate(bounds), "");
    const WideBvh wide = collapse_bvh(binary);
    EXPECT_EQ(wide.validate(bounds), "") << parallel;
    EXPECT_EQ(wide.prim_index, binary.prim_index) << parallel;
    EXPECT_LT(wide.nodes.size(), binary.nodes.size()) << parallel;
    EXPECT_LE(wide.max_depth, binary.stats.max_depth) << parallel;
  }
}

TEST(WideBvh, RayTraversalParityWithBinary) {
  const auto dataset = data::taxi_gps(3000, 11);
  const auto bounds = sphere_bounds(dataset.points, 0.25f);
  const Bvh binary = build_bvh(bounds, {});
  const WideBvh wide = collapse_bvh(binary);
  Rng rng(99);

  TraversalStats binary_stats;
  TraversalStats wide_stats;
  for (std::size_t q = 0; q < dataset.points.size(); q += 37) {
    // The paper's degenerate point query...
    const Ray point_ray = Ray::point_query(dataset.points[q]);
    const auto ray_exact = [&](const Ray& r) {
      return [&bounds, r](std::uint32_t id) {
        return geom::ray_intersects_aabb(r, bounds[id]);
      };
    };
    expect_candidate_contract(ray_candidates(wide, point_ray, wide_stats),
                              ray_candidates(binary, point_ray, binary_stats),
                              ray_exact(point_ray), "point ray");
    // ...and ordinary finite rays, including axis-parallel ones (zero
    // direction components exercise the slab test's parallel branch).
    const Ray finite{dataset.points[q],
                     {static_cast<float>(rng.uniform() - 0.5),
                      static_cast<float>(rng.uniform() - 0.5),
                      q % 3 == 0 ? 0.0f
                                 : static_cast<float>(rng.uniform() - 0.5)},
                     0.0f,
                     q % 5 == 0 ? 2.0f : 1e30f};
    expect_candidate_contract(ray_candidates(wide, finite, wide_stats),
                              ray_candidates(binary, finite, binary_stats),
                              ray_exact(finite), "finite ray");
  }
  // The point of the layout: far fewer node pops for the same exact
  // results and the same per-query launch count.
  EXPECT_EQ(wide_stats.rays, binary_stats.rays);
  EXPECT_LT(wide_stats.nodes_visited, binary_stats.nodes_visited);
}

TEST(WideBvh, OverlapTraversalParityWithBinary) {
  const auto dataset = data::uniform_cube(2500, 15.0f, 3, 13);
  const auto bounds = sphere_bounds(dataset.points, 0.0f);
  const Bvh binary = build_bvh(bounds, {});
  const WideBvh wide = collapse_bvh(binary);

  TraversalStats binary_stats;
  TraversalStats wide_stats;
  const auto check = [&](const Aabb& query) {
    expect_candidate_contract(
        overlap_candidates(wide, query, wide_stats),
        overlap_candidates(binary, query, binary_stats),
        [&](std::uint32_t id) { return query.overlaps(bounds[id]); },
        "overlap");
  };
  for (std::size_t q = 0; q < dataset.points.size(); q += 29) {
    check(Aabb::of_sphere(dataset.points[q], 0.8f));
  }
  // An all-covering box surfaces every primitive on both layouts.
  const Aabb everything{{-100, -100, -100}, {100, 100, 100}};
  EXPECT_EQ(overlap_candidates(wide, everything, wide_stats),
            overlap_candidates(binary, everything, binary_stats));
  const Aabb nothing{{500, 500, 500}, {501, 501, 501}};
  EXPECT_TRUE(overlap_candidates(wide, nothing, wide_stats).empty());
}

TEST(WideBvh, LeafCollapseEdgeCases) {
  // Empty scene.
  const Bvh empty_binary = build_bvh({}, {});
  const WideBvh empty_wide = collapse_bvh(empty_binary);
  EXPECT_TRUE(empty_wide.empty());
  TraversalStats stats;
  EXPECT_TRUE(
      ray_candidates(empty_wide, Ray::point_query({0, 0, 0}), stats).empty());

  // n < arity, including the single-leaf tree (n <= leaf_size collapses the
  // whole dataset into one leaf lane) and duplicate coordinates.
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u}) {
    std::vector<Vec3> pts;
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back(Vec3::xy(static_cast<float>(i % 3), 0.0f));  // dups
    }
    const auto bounds = sphere_bounds(pts, 0.5f);
    const Bvh binary = build_bvh(bounds, {});
    const WideBvh wide = collapse_bvh(binary);
    ASSERT_EQ(wide.validate(bounds), "") << "n=" << n;
    for (std::size_t q = 0; q < n; ++q) {
      const Ray ray = Ray::point_query(pts[q]);
      TraversalStats s1;
      TraversalStats s2;
      expect_candidate_contract(
          ray_candidates(wide, ray, s1), ray_candidates(binary, ray, s2),
          [&](std::uint32_t id) {
            return geom::ray_intersects_aabb(ray, bounds[id]);
          },
          "edge case");
    }
  }
}

TEST(WideBvh, RefitTracksRadiusSweep) {
  const auto dataset = data::taxi_gps(2000, 17);
  BuildOptions opts;
  opts.width = TraversalWidth::kWide;
  SphereAccel accel(dataset.points, 0.2f, opts);
  ASSERT_FALSE(accel.wide_bvh().empty());

  for (const float radius : {0.4f, 0.1f, 0.25f}) {
    accel.set_radius(radius);
    const auto bounds = sphere_bounds(dataset.points, radius);
    EXPECT_EQ(accel.wide_bvh().validate(bounds), "") << radius;
    // The refit wide layout keeps the candidate contract against the refit
    // binary tree it mirrors, and exact-filtered results match the brute
    // oracle.
    TraversalStats s1;
    TraversalStats s2;
    const float r2 = radius * radius;
    for (std::size_t q = 0; q < dataset.points.size(); q += 97) {
      const Ray ray = Ray::point_query(dataset.points[q]);
      EXPECT_TRUE(is_subset(ray_candidates(accel.bvh(), ray, s2),
                            ray_candidates(accel.wide_bvh(), ray, s1)))
          << radius << " q=" << q;
      std::vector<std::uint32_t> exact;
      for (const auto id : ray_candidates(accel.wide_bvh(), ray, s1)) {
        if (geom::distance_squared(dataset.points[q], dataset.points[id]) <=
            r2) {
          exact.push_back(id);
        }
      }
      std::vector<std::uint32_t> oracle;
      for (std::uint32_t j = 0; j < dataset.points.size(); ++j) {
        if (geom::distance_squared(dataset.points[q], dataset.points[j]) <=
            r2) {
          oracle.push_back(j);
        }
      }
      EXPECT_EQ(exact, oracle) << radius << " q=" << q;
    }
  }
}

TEST(WideBvh, WidthResolution) {
  EXPECT_FALSE(use_wide_traversal(TraversalWidth::kBinary, 1u << 20));
  EXPECT_TRUE(use_wide_traversal(TraversalWidth::kWide, 1));
  EXPECT_FALSE(use_wide_traversal(TraversalWidth::kAuto,
                                  kWideBvhMinPrims - 1));
  EXPECT_TRUE(use_wide_traversal(TraversalWidth::kAuto, kWideBvhMinPrims));

  // Unified empty-input rule: EVERY width resolves to the (trivial) binary
  // path at zero primitives — an explicit kWide request is not "quietly
  // disabled" at some other threshold, zero is the one size with nothing
  // to collapse (see the use_wide_traversal header comment).
  for (const TraversalWidth w :
       {TraversalWidth::kAuto, TraversalWidth::kBinary, TraversalWidth::kWide}) {
    EXPECT_FALSE(use_wide_traversal(w, 0)) << to_string(w);
  }

  EXPECT_STREQ(to_string(TraversalWidth::kAuto), "auto");
  EXPECT_STREQ(to_string(TraversalWidth::kBinary), "binary");
  EXPECT_STREQ(to_string(TraversalWidth::kWide), "wide");
  for (const TraversalWidth w :
       {TraversalWidth::kAuto, TraversalWidth::kBinary, TraversalWidth::kWide}) {
    TraversalWidth parsed = TraversalWidth::kBinary;
    EXPECT_TRUE(parse_traversal_width(to_string(w), parsed));
    EXPECT_EQ(parsed, w);
  }
  TraversalWidth unused = TraversalWidth::kAuto;
  EXPECT_FALSE(parse_traversal_width("narrow", unused));
  EXPECT_EQ(unused, TraversalWidth::kAuto);

  // kAuto materializes the wide layout only past the threshold.
  const auto small = data::taxi_gps(512, 19);
  const index::PointBvhIndex small_idx(small.points, 0.3f);
  EXPECT_TRUE(small_idx.wide_bvh().empty());
  const auto large = data::taxi_gps(kWideBvhMinPrims, 19);
  const index::PointBvhIndex large_idx(large.points, 0.3f);
  EXPECT_FALSE(large_idx.wide_bvh().empty());

  // Explicit requests on empty inputs build nothing and stay on the
  // (trivially empty) binary walk — on every owner.
  const std::vector<Vec3> none;
  index::IndexBuildOptions wide_opts;
  wide_opts.build.width = TraversalWidth::kWide;
  const index::PointBvhIndex empty_idx(none, 0.3f, wide_opts.build);
  EXPECT_TRUE(empty_idx.wide_bvh().empty());
  EXPECT_EQ(neighbor_set(empty_idx, Vec3{0, 0, 0}, 0.3f, index::kNoSelf),
            std::vector<std::uint32_t>{});
  BuildOptions tri_opts;
  tri_opts.width = TraversalWidth::kWide;
  const TriangleAccel empty_tri({}, {}, tri_opts);
  EXPECT_TRUE(empty_tri.wide_bvh().empty());
}

// Satellite: collapse_bvh() returns an EMPTY tree when a binary leaf
// exceeds kWideMaxLeafCount (only reachable with an absurd
// BuildOptions::leaf_size) — every owner must detect that and keep the
// binary walk, not traverse a hollow wide tree.
TEST(WideBvh, OversizeLeafFallsBackToBinaryOnEveryOwner) {
  // One leaf holding > 0xffff primitives: 16-bit lane counts cannot
  // represent it.
  const std::size_t n = static_cast<std::size_t>(kWideMaxLeafCount) + 2;
  const auto dataset = data::uniform_cube(n, 50.0f, 3, 43);
  BuildOptions absurd;
  absurd.leaf_size = 1u << 20;
  absurd.width = TraversalWidth::kWide;

  const auto bounds = sphere_bounds(dataset.points, 0.5f);
  const Bvh binary = build_bvh(bounds, absurd);
  ASSERT_TRUE(collapse_bvh(binary).empty());

  // SphereAccel: explicit kWide request, collapse unrepresentable → the
  // accel must report an empty wide tree and still answer correctly.
  SphereAccel accel(dataset.points, 0.5f, absurd);
  EXPECT_TRUE(accel.wide_bvh().empty());
  TraversalStats stats;
  const Ray probe = Ray::point_query(dataset.points[7]);
  std::vector<std::uint32_t> got;
  accel.trace(
      probe,
      [&](std::uint32_t prim) {
        if (accel.origin_inside(probe, prim)) got.push_back(prim);
      },
      stats);
  std::sort(got.begin(), got.end());
  std::vector<std::uint32_t> oracle;
  for (std::uint32_t j = 0; j < n; ++j) {
    if (geom::distance_squared(dataset.points[7], dataset.points[j]) <=
        0.25f) {
      oracle.push_back(j);
    }
  }
  EXPECT_EQ(got, oracle);

  // PointBvhIndex detects the empty collapse the same way.
  const index::PointBvhIndex idx(dataset.points, 0.5f, absurd);
  EXPECT_TRUE(idx.wide_bvh().empty());
  EXPECT_EQ(neighbor_set(idx, dataset.points[7], 0.5f, 7),
            [&] {
              std::vector<std::uint32_t> o;
              for (std::uint32_t j = 0; j < n; ++j) {
                if (j != 7 && geom::distance_squared(dataset.points[7],
                                                     dataset.points[j]) <=
                                  0.25f) {
                  o.push_back(j);
                }
              }
              return o;
            }());

  // TriangleAccel: an oversize-leaf build over triangles falls back too.
  std::vector<geom::Triangle> tris;
  std::vector<std::uint32_t> owners;
  const std::size_t tri_n = static_cast<std::size_t>(kWideMaxLeafCount) + 2;
  tris.reserve(tri_n);
  owners.reserve(tri_n);
  Rng rng(44);
  for (std::uint32_t i = 0; i < tri_n; ++i) {
    const Vec3 base{rng.uniformf(-40, 40), rng.uniformf(-40, 40),
                    rng.uniformf(-40, 40)};
    tris.push_back({base, base + Vec3{0.1f, 0, 0}, base + Vec3{0, 0.1f, 0}});
    owners.push_back(i);
  }
  const TriangleAccel tri_accel(std::move(tris), std::move(owners), absurd);
  EXPECT_TRUE(tri_accel.wide_bvh().empty());
  EXPECT_FALSE(tri_accel.bvh().empty());
}

// ---------------------------------------------------------------------------
// Index-layer and clustering parity: wide and binary must agree on neighbor
// SETS and on the final Clustering, for every BVH-backed backend, across
// the standard degenerate datasets.
// ---------------------------------------------------------------------------

struct WidthCase {
  const char* name;
  std::vector<Vec3> points;
  float eps;
};

std::vector<WidthCase> width_cases() {
  std::vector<WidthCase> cases;
  cases.push_back({"uniform", data::uniform_cube(1500, 20.0f, 3, 101).points,
                   0.9f});
  cases.push_back(
      {"blobs", data::gaussian_blobs(1500, 3, 0.5f, 10.0f, 3, 102).points,
       0.4f});
  std::vector<Vec3> colinear;
  for (int i = 0; i < 150; ++i) {
    colinear.push_back(Vec3::xy(static_cast<float>(i) * 0.25f, 0.0f));
  }
  for (int d = 0; d < 30; ++d) {
    colinear.push_back(Vec3::xy(7.5f, 0.0f));
  }
  cases.push_back({"colinear_dups", std::move(colinear), 0.6f});
  std::vector<Vec3> dups(64, Vec3{1.0f, 2.0f, 3.0f});
  cases.push_back({"all_duplicates", std::move(dups), 0.5f});
  return cases;
}

std::unique_ptr<index::NeighborIndex> make_width_index(
    std::span<const Vec3> points, float eps, index::IndexKind kind,
    TraversalWidth width) {
  index::IndexBuildOptions options;
  options.build.width = width;
  return index::make_index(points, eps, kind, options);
}

TEST(WideBvhIndexParity, NeighborSetsMatchBinaryOnEveryBvhBackend) {
  for (const auto& c : width_cases()) {
    for (const index::IndexKind kind :
         {index::IndexKind::kPointBvh, index::IndexKind::kBvhRt}) {
      const auto binary =
          make_width_index(c.points, c.eps, kind, TraversalWidth::kBinary);
      {
        const TraversalWidth width = TraversalWidth::kWide;
        const auto wide = make_width_index(c.points, c.eps, kind, width);
        for (std::uint32_t q = 0; q < c.points.size(); q += 17) {
          EXPECT_EQ(neighbor_set(*wide, c.points[q], c.eps, q),
                    neighbor_set(*binary, c.points[q], c.eps, q))
              << c.name << " " << index::to_string(kind) << " "
              << to_string(width) << " q=" << q;
        }
        // query_count agrees too (including through the early-exit cap).
        for (std::uint32_t q = 0; q < c.points.size(); q += 41) {
          TraversalStats s1;
          TraversalStats s2;
          EXPECT_EQ(wide->query_count(c.points[q], c.eps, q, s1),
                    binary->query_count(c.points[q], c.eps, q, s2))
              << c.name << " " << index::to_string(kind) << " "
              << to_string(width);
        }
      }
    }
  }
}

TEST(WideBvhIndexParity, QueryBoxMatchesBinaryOnEveryBvhBackend) {
  // query_box routes through the same layout dispatch as the sphere
  // queries.
  const auto c = width_cases().front();
  const auto box_set = [](const index::NeighborIndex& idx, const Aabb& box,
                          TraversalStats& stats) {
    std::vector<std::uint32_t> ids;
    idx.query_box(box, [&](std::uint32_t j) { ids.push_back(j); }, stats);
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  for (const index::IndexKind kind :
       {index::IndexKind::kPointBvh, index::IndexKind::kBvhRt}) {
    const auto binary =
        make_width_index(c.points, c.eps, kind, TraversalWidth::kBinary);
    {
      const TraversalWidth width = TraversalWidth::kWide;
      const auto other = make_width_index(c.points, c.eps, kind, width);
      TraversalStats sb;
      TraversalStats so;
      for (std::uint32_t q = 0; q < c.points.size(); q += 97) {
        const Aabb box = Aabb::of_sphere(c.points[q], 1.3f * c.eps);
        EXPECT_EQ(box_set(*other, box, so), box_set(*binary, box, sb))
            << index::to_string(kind) << " " << to_string(width)
            << " q=" << q;
      }
      // The wide layout must actually be WALKED: a silent binary fallback
      // would pop the same node count as the binary index.
      EXPECT_LT(so.nodes_visited, sb.nodes_visited)
          << index::to_string(kind) << " " << to_string(width);
    }
  }
}

TEST(WideBvhClusteringParity, EngineIdenticalAcrossWidths) {
  const dbscan::Params params{0.6f, 5};
  for (const auto& c : width_cases()) {
    dbscan::Params p = params;
    p.eps = c.eps;
    for (const index::IndexKind kind :
         {index::IndexKind::kPointBvh, index::IndexKind::kBvhRt}) {
      const auto binary =
          make_width_index(c.points, p.eps, kind, TraversalWidth::kBinary);
      const auto run_b = dbscan::cluster_with_index(*binary, p);
      {
        const TraversalWidth width = TraversalWidth::kWide;
        const auto wide = make_width_index(c.points, p.eps, kind, width);
        const auto run_w = dbscan::cluster_with_index(*wide, p);
        // Identical, not merely equivalent: the candidate sets match
        // per-query after the exact filter, so the whole two-phase run
        // replays bit-for-bit.
        EXPECT_EQ(run_w.clustering.labels, run_b.clustering.labels)
            << c.name << " " << index::to_string(kind) << " "
            << to_string(width);
        EXPECT_EQ(run_w.clustering.is_core, run_b.clustering.is_core)
            << c.name << " " << index::to_string(kind) << " "
            << to_string(width);
        EXPECT_EQ(run_w.neighbor_counts, run_b.neighbor_counts)
            << c.name << " " << index::to_string(kind) << " "
            << to_string(width);
        testutil::expect_matches_reference(c.points, p, run_w.clustering,
                                           c.name);
      }
    }
  }
}

TEST(WideBvhClusteringParity, VariantsMatchReferenceWithForcedWide) {
  const auto dataset = data::taxi_gps(2500, 61);
  const dbscan::Params params{0.3f, 8};

  // FDBSCAN over a forced-wide point BVH (with and without early exit).
  for (const bool early_exit : {false, true}) {
    dbscan::FdbscanOptions options;
    options.build.width = TraversalWidth::kWide;
    options.early_exit = early_exit;
    const auto fd = dbscan::fdbscan(dataset.points, params, options);
    testutil::expect_matches_reference(dataset.points, params, fd.clustering,
                                       "fdbscan+wide");
  }

  // RT-DBSCAN over a forced-wide sphere scene, reordered and not.
  for (const bool reorder : {false, true}) {
    core::RtDbscanOptions options;
    options.device.build.width = TraversalWidth::kWide;
    options.reorder_queries = reorder;
    const auto rt = core::rt_dbscan(dataset.points, params, options);
    testutil::expect_matches_reference(dataset.points, params, rt.clustering,
                                       "rt_dbscan+wide");
  }

  // Forced-binary and forced-wide RT runs are identical point for point.
  core::RtDbscanOptions narrow;
  narrow.device.build.width = TraversalWidth::kBinary;
  core::RtDbscanOptions wide;
  wide.device.build.width = TraversalWidth::kWide;
  const auto rt_b = core::rt_dbscan(dataset.points, params, narrow);
  const auto rt_w = core::rt_dbscan(dataset.points, params, wide);
  EXPECT_EQ(rt_w.clustering.labels, rt_b.clustering.labels);
  EXPECT_EQ(rt_w.neighbor_counts, rt_b.neighbor_counts);
}

// ---------------------------------------------------------------------------
// Triangle mode (§VI-C) on the wide kernel: the tessellated scene must
// surface identical owner sets and identical clusterings across binary and
// wide, on the standard degenerate datasets, and the wide layout must
// refit through a TriangleAccel ε sweep.
// ---------------------------------------------------------------------------

/// Owner set a +z §VI-C query ray hits (exact AnyHit dedup), sorted.
std::vector<std::uint32_t> traced_owner_set(const TriangleAccel& accel,
                                            const Vec3& origin, float tmax,
                                            TraversalStats& stats) {
  std::vector<std::uint32_t> owners;
  const geom::Ray ray{origin, {0.0f, 0.0f, 1.0f}, 0.0f, tmax};
  accel.trace(
      ray, [&](std::uint32_t owner, float /*t*/) { owners.push_back(owner); },
      stats);
  std::sort(owners.begin(), owners.end());
  owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
  return owners;
}

TEST(TriangleWideParity, KAutoCollapsesAtThreshold) {
  // >= kWideBvhMinPrims TRIANGLES (not points): 256 spheres x 20 faces.
  const auto dataset = data::taxi_gps(256, 53);
  const TriangleAccel big(dataset.points, 0.3f, /*subdivisions=*/0, {});
  ASSERT_GE(big.triangle_count(), kWideBvhMinPrims);
  EXPECT_FALSE(big.wide_bvh().empty());  // kAuto default picked wide

  const auto small = data::taxi_gps(64, 53);
  const TriangleAccel tiny(small.points, 0.3f, 0, {});
  ASSERT_LT(tiny.triangle_count(), kWideBvhMinPrims);
  EXPECT_TRUE(tiny.wide_bvh().empty());
}

TEST(TriangleWideParity, OwnerSetsIdenticalAcrossWidths) {
  struct TriCase {
    const char* name;
    std::vector<Vec3> points;
    float eps;
  };
  std::vector<TriCase> cases;
  cases.push_back({"uniform", data::uniform_cube(400, 12.0f, 3, 61).points,
                   0.9f});
  cases.push_back(
      {"blobs", data::gaussian_blobs(400, 3, 0.5f, 8.0f, 3, 62).points,
       0.5f});
  std::vector<Vec3> dups(48, Vec3{1.0f, 2.0f, 3.0f});
  cases.push_back({"all_duplicates", std::move(dups), 0.5f});

  for (const auto& c : cases) {
    BuildOptions binary_opts;
    binary_opts.width = TraversalWidth::kBinary;
    const TriangleAccel binary(c.points, c.eps, 1, binary_opts);
    const float tmax = 1.01f * (c.eps + binary.vertex_scale());
    {
      const TraversalWidth width = TraversalWidth::kWide;
      BuildOptions opts;
      opts.width = width;
      const TriangleAccel other(c.points, c.eps, 1, opts);
      ASSERT_FALSE(other.wide_bvh().empty()) << c.name;
      TraversalStats s1;
      TraversalStats s2;
      for (std::size_t q = 0; q < c.points.size(); q += 7) {
        EXPECT_EQ(traced_owner_set(other, c.points[q], tmax, s1),
                  traced_owner_set(binary, c.points[q], tmax, s2))
            << c.name << " " << to_string(width) << " q=" << q;
      }
      // The point of the kernel: same exact hits, fewer node pops.
      EXPECT_LT(s1.nodes_visited, s2.nodes_visited)
          << c.name << " " << to_string(width);
      EXPECT_EQ(s1.anyhit_calls, s2.anyhit_calls)
          << c.name << " " << to_string(width);
    }
  }
}

TEST(TriangleWideParity, ClusteringsIdenticalAcrossWidths) {
  const auto dataset = data::gaussian_blobs(700, 4, 0.4f, 9.0f, 3, 67);
  const dbscan::Params params{0.5f, 6};
  const dbscan::Params tri{params.eps, params.min_pts,
                           index::IndexKind::kTriangles};
  core::RtDbscanOptions base;
  base.triangle_subdivisions = 1;

  core::RtDbscanOptions binary = base;
  binary.device.build.width = TraversalWidth::kBinary;
  const auto rt_b = core::rt_dbscan(dataset.points, tri, binary);
  testutil::expect_matches_reference(dataset.points, params, rt_b.clustering,
                                     "triangles+binary");

  {
    const TraversalWidth width = TraversalWidth::kWide;
    core::RtDbscanOptions opts = base;
    opts.device.build.width = width;
    const auto rt_w = core::rt_dbscan(dataset.points, tri, opts);
    EXPECT_EQ(rt_w.clustering.labels, rt_b.clustering.labels)
        << to_string(width);
    EXPECT_EQ(rt_w.clustering.is_core, rt_b.clustering.is_core)
        << to_string(width);
    EXPECT_EQ(rt_w.neighbor_counts, rt_b.neighbor_counts)
        << to_string(width);
    // AnyHit counts match too: the exact triangle filter runs before the
    // program, so the wide superset only inflates candidate tests.
    EXPECT_EQ(rt_w.phase1.work.anyhit_calls, rt_b.phase1.work.anyhit_calls)
        << to_string(width);
  }
}

TEST(TriangleWideParity, RefitAfterEpsSweepKeepsParity) {
  const auto dataset = data::taxi_gps(500, 71);
  for (const TraversalWidth width :
       {TraversalWidth::kBinary, TraversalWidth::kWide}) {
    BuildOptions opts;
    opts.width = width;
    TriangleAccel accel(dataset.points, 0.2f, 1, opts);
    for (const float eps : {0.45f, 0.15f, 0.3f}) {
      accel.set_radius(eps);
      EXPECT_FLOAT_EQ(accel.radius(), eps);
      // Refit accel vs from-scratch accel: identical owner sets per query.
      const TriangleAccel fresh(dataset.points, eps, 1, opts);
      EXPECT_NEAR(accel.vertex_scale(), fresh.vertex_scale(),
                  1e-4f * fresh.vertex_scale());
      const float tmax = 1.01f * (eps + fresh.vertex_scale());
      TraversalStats s1;
      for (std::size_t q = 0; q < dataset.points.size(); q += 23) {
        // The refit mesh is bit-near but not bit-identical to a fresh
        // tessellation (raw shell crossings in the eps..circumradius band
        // may differ by ulps); what the clustering consumes is the owner
        // set after the exact distance filter — that must match the brute
        // oracle exactly, circumscription guarantees no true neighbor is
        // missed.
        const auto owners = traced_owner_set(accel, dataset.points[q], tmax,
                                             s1);
        std::vector<std::uint32_t> exact;
        for (const auto id : owners) {
          if (geom::distance_squared(dataset.points[q], dataset.points[id]) <=
              eps * eps) {
            exact.push_back(id);
          }
        }
        std::vector<std::uint32_t> oracle;
        for (std::uint32_t j = 0; j < dataset.points.size(); ++j) {
          if (geom::distance_squared(dataset.points[q], dataset.points[j]) <=
              eps * eps) {
            oracle.push_back(j);
          }
        }
        EXPECT_EQ(exact, oracle) << to_string(width) << " eps=" << eps
                                 << " q=" << q;
      }
    }
  }
}

TEST(TriangleWideParity, GenericAccelRejectsSetRadius) {
  std::vector<geom::Triangle> tris{{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}}};
  std::vector<std::uint32_t> owners{0};
  TriangleAccel accel(std::move(tris), std::move(owners), {});
  EXPECT_FALSE(accel.rescalable());
  EXPECT_THROW(accel.set_radius(0.5f), std::logic_error);
}

}  // namespace
}  // namespace rtd::rt
