// Substrate micro-benchmarks: BVH build and traversal throughput
// (google-benchmark).  Characterizes the RT-core simulator itself,
// including the binary-vs-wide traversal trade: the *_Wide benchmarks
// mirror their binary counterparts over the collapsed 8-ary SoA layout,
// the QuerySweep1M pair is the sphere-mode headline and the TriangleSweep
// pair the §VI-C triangle-mode headline (scripts/bench_snapshot.sh).
#include <benchmark/benchmark.h>

#include <cmath>
#include <map>

#include "common/rng.hpp"
#include "data/generators.hpp"
#include "geom/ray.hpp"
#include "rt/bvh.hpp"
#include "rt/tessellate.hpp"
#include "rt/traversal.hpp"
#include "rt/wide_bvh.hpp"

namespace {

using namespace rtd;

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
  const auto bvh = rt::build_bvh(bounds, {});
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

void BM_PointQueryTraversal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dataset = data::taxi_gps(n, 7);
  std::vector<geom::Aabb> bounds;
  for (const auto& p : dataset.points) {
    bounds.push_back(geom::Aabb::of_sphere(p, 0.3f));
  }
  const auto bvh = rt::build_bvh(bounds, {});
  rt::TraversalStats stats;
  std::size_t q = 0;
  for (auto _ : state) {
    std::uint64_t hits = 0;
    rt::traverse(
        bvh, geom::Ray::point_query(dataset.points[q]),
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
BENCHMARK(BM_PointQueryTraversal)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_OverlapQueryTraversal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dataset = data::taxi_gps(n, 7);
  std::vector<geom::Aabb> bounds;
  for (const auto& p : dataset.points) {
    bounds.push_back(geom::Aabb::of_point(p));
  }
  const auto bvh = rt::build_bvh(bounds, {});
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
  const auto wide = rt::collapse_bvh(rt::build_bvh(bounds, {}));
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
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointQueryTraversalWide)
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
  const auto wide = rt::collapse_bvh(rt::build_bvh(bounds, {}));
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
// The headline sweep: ε-sphere point queries against a 1M-point uniform
// cube, binary vs wide.  One iteration = one query, cycling through the
// dataset — the same access pattern as an engine phase-1 pass.
// ---------------------------------------------------------------------------

const data::Dataset& uniform_1m() {
  static const data::Dataset dataset = data::uniform_cube(1000000, 100.0f,
                                                          3, 2024);
  return dataset;
}

const rt::Bvh& uniform_1m_bvh() {
  static const rt::Bvh bvh = [] {
    const auto& dataset = uniform_1m();
    std::vector<geom::Aabb> bounds;
    bounds.reserve(dataset.points.size());
    for (const auto& p : dataset.points) {
      bounds.push_back(geom::Aabb::of_sphere(p, 1.0f));
    }
    return rt::build_bvh(bounds, {});
  }();
  return bvh;
}

void BM_QuerySweep1M_Binary(benchmark::State& state) {
  const auto& dataset = uniform_1m();
  const auto& bvh = uniform_1m_bvh();
  rt::TraversalStats stats;
  std::size_t q = 0;
  for (auto _ : state) {
    std::uint64_t hits = 0;
    rt::traverse(
        bvh, geom::Ray::point_query(dataset.points[q]),
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
BENCHMARK(BM_QuerySweep1M_Binary)->Unit(benchmark::kMicrosecond);

void BM_QuerySweep1M_Wide(benchmark::State& state) {
  const auto& dataset = uniform_1m();
  static const rt::WideBvh wide = rt::collapse_bvh(uniform_1m_bvh());
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
// §VI-C triangle-mode sweeps: the same binary/wide trade over a
// tessellated-sphere scene.  One iteration = one +z query ray through the
// exact Moller-Trumbore filter (the AnyHit workload), cycling through the
// data points.  Arg = TRIANGLE count: 10000 for the CI smoke pass,
// 1000000 for the headline.
// ---------------------------------------------------------------------------

struct TriScene {
  std::vector<geom::Vec3> points;
  std::vector<geom::Triangle> triangles;
  float tmax = 0.0f;
  rt::Bvh bvh;
  rt::WideBvh wide;
};

const TriScene& tri_scene(std::size_t n_triangles) {
  static std::map<std::size_t, TriScene> cache;
  const auto it = cache.find(n_triangles);
  if (it != cache.end()) return it->second;
  TriScene& scene = cache[n_triangles];
  // Same workload shape as the sphere-mode QuerySweep: a uniform cube at
  // ~1 point/unit^3 with a unit-ish eps, so queries surface a handful of
  // neighbors and the sweep measures TRAVERSAL, not the (width-invariant)
  // pile of exact triangle tests a dense dataset would add on top.
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
  scene.bvh = rt::build_bvh(bounds, {});
  scene.wide = rt::collapse_bvh(scene.bvh);
  return scene;
}

template <typename TreeT>
void triangle_sweep(benchmark::State& state, const TriScene& scene,
                    const TreeT& tree) {
  rt::TraversalStats stats;
  std::size_t q = 0;
  for (auto _ : state) {
    std::uint64_t hits = 0;
    const geom::Ray ray{scene.points[q], {0.0f, 0.0f, 1.0f}, 0.0f,
                        scene.tmax};
    rt::traverse(
        tree, ray,
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

void BM_TriangleSweep_Binary(benchmark::State& state) {
  const auto& scene = tri_scene(static_cast<std::size_t>(state.range(0)));
  triangle_sweep(state, scene, scene.bvh);
}
BENCHMARK(BM_TriangleSweep_Binary)
    ->Arg(10000)
    ->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

void BM_TriangleSweep_Wide(benchmark::State& state) {
  const auto& scene = tri_scene(static_cast<std::size_t>(state.range(0)));
  triangle_sweep(state, scene, scene.wide);
}
BENCHMARK(BM_TriangleSweep_Wide)
    ->Arg(10000)
    ->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
