// Substrate micro-benchmarks: BVH build and traversal throughput
// (google-benchmark).  Characterizes the RT-core simulator itself.  Ray
// walks run over the collapsed 8-ary SoA layout, the one layout the ray
// scenes trace: QuerySweep1M is the sphere-mode sweep and TriangleSweep the
// §VI-C triangle-mode one (scripts/bench_snapshot.sh reports both).  The
// overlap walk runs over both layouts, since index::PointTree ships both.
// BM_PointQueryTraversalWide and *Packet walk the same queries in Morton
// order, the launch order of every full query pass; *Packet traces them as
// 4-ray packets (rt::traverse_points), so compare items_per_second.
#include <benchmark/benchmark.h>

#include <bit>
#include <cmath>
#include <map>

#include "common/rng.hpp"
#include "data/generators.hpp"
#include "dbscan/engine.hpp"
#include "geom/ray.hpp"
#include "rt/bvh.hpp"
#include "rt/tessellate.hpp"
#include "rt/traversal.hpp"
#include "rt/wide_bvh.hpp"

namespace {

using namespace rtd;

/// The queries of the point-query benchmarks: every point, Morton order.
std::vector<geom::Vec3> morton_queries(std::span<const geom::Vec3> points) {
  std::vector<geom::Vec3> queries;
  queries.reserve(points.size());
  for (const std::uint32_t i : dbscan::query_launch_order(points, true, 1)) {
    queries.push_back(points[i]);
  }
  return queries;
}

std::vector<geom::Aabb> sphere_bounds(std::size_t n, float radius) {
  const auto dataset = data::taxi_gps(n, 7);
  std::vector<geom::Aabb> bounds;
  bounds.reserve(n);
  for (const auto& p : dataset.points) {
    bounds.push_back(geom::Aabb::of_sphere(p, radius));
  }
  return bounds;
}

void BM_BuildLbvh(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto bounds = sphere_bounds(n, 0.3f);
  for (auto _ : state) {
    auto bvh = rt::build_bvh(bounds);
    benchmark::DoNotOptimize(bvh.nodes.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BuildLbvh)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_CollapseWide(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto bounds = sphere_bounds(n, 0.3f);
  const auto bvh = rt::build_bvh(bounds);
  for (auto _ : state) {
    auto wide = rt::collapse_bvh(bvh);
    benchmark::DoNotOptimize(wide.nodes.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CollapseWide)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_OverlapQueryTraversal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dataset = data::taxi_gps(n, 7);
  std::vector<geom::Aabb> bounds;
  for (const auto& p : dataset.points) {
    bounds.push_back(geom::Aabb::of_point(p));
  }
  const auto bvh = rt::build_bvh(bounds);
  rt::TraversalStats stats;
  std::size_t q = 0;
  for (auto _ : state) {
    std::uint64_t hits = 0;
    rt::traverse_overlap(
        bvh, geom::Aabb::of_sphere(dataset.points[q], 0.3f),
        [&](std::uint32_t) {
          ++hits;
          return rt::TraversalControl::kContinue;
        },
        stats);
    benchmark::DoNotOptimize(hits);
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OverlapQueryTraversal)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_PointQueryTraversalWide(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dataset = data::taxi_gps(n, 7);
  std::vector<geom::Aabb> bounds;
  for (const auto& p : dataset.points) {
    bounds.push_back(geom::Aabb::of_sphere(p, 0.3f));
  }
  const auto wide = rt::collapse_bvh(rt::build_bvh(bounds));
  const auto queries = morton_queries(dataset.points);
  rt::TraversalStats stats;
  std::size_t q = 0;
  for (auto _ : state) {
    std::uint64_t hits = 0;
    rt::traverse(
        wide, geom::Ray::point_query(queries[q]),
        [&](std::uint32_t) {
          ++hits;
          return rt::TraversalControl::kContinue;
        },
        stats);
    benchmark::DoNotOptimize(hits);
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointQueryTraversalWide)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// The same tree and queries as BM_PointQueryTraversalWide, four consecutive
// queries per packet walk: one iteration is one packet (4 items).
void BM_PointQueryTraversalPacket(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dataset = data::taxi_gps(n, 7);
  std::vector<geom::Aabb> bounds;
  for (const auto& p : dataset.points) {
    bounds.push_back(geom::Aabb::of_sphere(p, 0.3f));
  }
  const auto wide = rt::collapse_bvh(rt::build_bvh(bounds));
  const auto queries = morton_queries(dataset.points);
  rt::TraversalStats stats;
  std::size_t q = 0;
  for (auto _ : state) {
    rt::PointPacket packet;
    for (std::uint32_t k = 0; k < rt::kPacketWidth; ++k) {
      packet.push(queries[(q + k) % n]);
    }
    std::uint64_t hits = 0;
    rt::traverse_points(
        wide, packet,
        [&](std::uint32_t, std::uint32_t rays) {
          hits += static_cast<std::uint64_t>(std::popcount(rays));
        },
        stats);
    benchmark::DoNotOptimize(hits);
    q = (q + rt::kPacketWidth) % n;
  }
  state.SetItemsProcessed(state.iterations() * rt::kPacketWidth);
}
BENCHMARK(BM_PointQueryTraversalPacket)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_OverlapQueryTraversalWide(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dataset = data::taxi_gps(n, 7);
  std::vector<geom::Aabb> bounds;
  for (const auto& p : dataset.points) {
    bounds.push_back(geom::Aabb::of_point(p));
  }
  const auto wide = rt::collapse_bvh(rt::build_bvh(bounds));
  rt::TraversalStats stats;
  std::size_t q = 0;
  for (auto _ : state) {
    std::uint64_t hits = 0;
    rt::traverse_overlap(
        wide, geom::Aabb::of_sphere(dataset.points[q], 0.3f),
        [&](std::uint32_t) {
          ++hits;
          return rt::TraversalControl::kContinue;
        },
        stats);
    benchmark::DoNotOptimize(hits);
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OverlapQueryTraversalWide)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// The sphere-mode sweep: ε-sphere point queries against a 1M-point uniform
// cube.  One iteration = one query, cycling through the dataset — the same
// access pattern as an engine phase-1 pass.
// ---------------------------------------------------------------------------

const data::Dataset& uniform_1m() {
  static const data::Dataset dataset = data::uniform_cube(1000000, 100.0f,
                                                          3, 2024);
  return dataset;
}

void BM_QuerySweep1M_Wide(benchmark::State& state) {
  const auto& dataset = uniform_1m();
  static const rt::WideBvh wide = [&] {
    std::vector<geom::Aabb> bounds;
    bounds.reserve(dataset.points.size());
    for (const auto& p : dataset.points) {
      bounds.push_back(geom::Aabb::of_sphere(p, 1.0f));
    }
    return rt::collapse_bvh(rt::build_bvh(bounds));
  }();
  rt::TraversalStats stats;
  std::size_t q = 0;
  for (auto _ : state) {
    std::uint64_t hits = 0;
    rt::traverse(
        wide, geom::Ray::point_query(dataset.points[q]),
        [&](std::uint32_t) {
          ++hits;
          return rt::TraversalControl::kContinue;
        },
        stats);
    benchmark::DoNotOptimize(hits);
    q = (q + 1) % dataset.points.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuerySweep1M_Wide)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// §VI-C triangle-mode sweep: the same walk over a tessellated-sphere
// scene.  One iteration = one +z query ray through the exact
// Moller-Trumbore filter (the AnyHit workload), cycling through the data
// points.  Arg = TRIANGLE count: 10000 for the CI smoke pass, 1000000 for
// the snapshot.
// ---------------------------------------------------------------------------

struct TriScene {
  std::vector<geom::Vec3> points;
  std::vector<geom::Triangle> triangles;
  float tmax = 0.0f;
  rt::WideBvh wide;
};

const TriScene& tri_scene(std::size_t n_triangles) {
  static std::map<std::size_t, TriScene> cache;
  const auto it = cache.find(n_triangles);
  if (it != cache.end()) return it->second;
  TriScene& scene = cache[n_triangles];
  // Same workload shape as the sphere-mode QuerySweep: a uniform cube at
  // ~1 point/unit^3 with a unit-ish eps, so queries surface a handful of
  // neighbors and the sweep measures TRAVERSAL, not the pile of exact
  // triangle tests a dense dataset would add on top.
  constexpr float kEps = 1.0f;
  constexpr int kSubdiv = 0;  // 20 faces/sphere
  const auto n_points = n_triangles / 20;
  const float extent = std::cbrt(static_cast<float>(n_points));
  scene.points = data::uniform_cube(n_points, extent, 3, 2024).points;
  auto mesh = rt::tessellate_spheres(scene.points, kEps, kSubdiv);
  scene.tmax = 1.01f * (kEps + mesh.scale);
  scene.triangles = std::move(mesh.triangles);
  std::vector<geom::Aabb> bounds;
  bounds.reserve(scene.triangles.size());
  for (const auto& t : scene.triangles) {
    bounds.push_back(t.bounds());
  }
  scene.wide = rt::collapse_bvh(rt::build_bvh(bounds));
  return scene;
}

void BM_TriangleSweep_Wide(benchmark::State& state) {
  const auto& scene = tri_scene(static_cast<std::size_t>(state.range(0)));
  rt::TraversalStats stats;
  std::size_t q = 0;
  for (auto _ : state) {
    std::uint64_t hits = 0;
    const geom::Ray ray{scene.points[q], {0.0f, 0.0f, 1.0f}, 0.0f,
                        scene.tmax};
    rt::traverse(
        scene.wide, ray,
        [&](std::uint32_t prim) {
          // The "hardware" exact triangle test — the §VI-C AnyHit workload.
          if (geom::ray_intersects_triangle(ray, scene.triangles[prim])) {
            ++hits;
          }
          return rt::TraversalControl::kContinue;
        },
        stats);
    benchmark::DoNotOptimize(hits);
    q = (q + 1) % scene.points.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TriangleSweep_Wide)
    ->Arg(10000)
    ->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
