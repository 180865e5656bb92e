// SphereAccel / TriangleAccel scenes and the rt::parallel_launch harness.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "common/rng.hpp"
#include "data/generators.hpp"
#include "rt/parallel_launch.hpp"
#include "rt/scene.hpp"
#include "rt/tessellate.hpp"

namespace rtd::rt {
namespace {

using geom::Ray;
using geom::Vec3;

TEST(SphereAccel, BuildsValidBvhOverSpheres) {
  const auto dataset = data::taxi_gps(2000, 601);
  const SphereAccel accel(dataset.points, 0.4f);
  EXPECT_EQ(accel.size(), dataset.size());
  EXPECT_EQ(accel.radius(), 0.4f);
  EXPECT_GT(accel.build_stats().node_count, 0u);

  std::vector<geom::Aabb> bounds;
  for (const auto& c : accel.centers()) {
    bounds.push_back(geom::Aabb::of_sphere(c, accel.radius()));
  }
  EXPECT_TRUE(accel.bvh().validate(bounds).empty());
}

TEST(SphereAccel, OriginInsideMatchesDistance) {
  const SphereAccel accel({{0, 0, 0}, {3, 0, 0}}, 1.0f);
  const Ray at_origin = Ray::point_query(Vec3{0.5f, 0, 0});
  EXPECT_TRUE(accel.origin_inside(at_origin, 0));
  EXPECT_FALSE(accel.origin_inside(at_origin, 1));
  const Ray boundary = Ray::point_query(Vec3{1.0f, 0, 0});
  EXPECT_TRUE(accel.origin_inside(boundary, 0));  // inclusive
}

TEST(SphereAccel, IntersectionProgramCannotTerminate) {
  // OptiX semantics: trace() visits every candidate; the program has no
  // early-out channel (the paper's §VI-B constraint).  Verify all overlapping
  // spheres are reported even when the "program" stops recording.
  std::vector<Vec3> centers(50, Vec3{1, 1, 1});  // all overlapping
  const SphereAccel accel(centers, 1.0f);
  TraversalStats st;
  std::size_t calls = 0;
  accel.trace(Ray::point_query(Vec3{1, 1, 1}),
              [&](std::uint32_t) { ++calls; }, st);
  EXPECT_EQ(calls, centers.size());
  EXPECT_EQ(st.isect_calls, centers.size());
}

TEST(TriangleAccel, RejectsMismatchedOwners) {
  auto mesh = tessellate_spheres(std::vector<Vec3>{{0, 0, 0}}, 1.0f, 0);
  mesh.owners.pop_back();
  EXPECT_THROW(TriangleAccel(std::move(mesh.triangles),
                             std::move(mesh.owners)),
               std::invalid_argument);
}

TEST(TriangleAccel, AnyHitReceivesOwnersAndHitT) {
  const std::vector<Vec3> centers{{0, 0, 0}, {10, 0, 0}};
  const TriangleAccel accel(centers, 1.0f, 1);
  EXPECT_EQ(accel.triangle_count(), 2u * 80u);

  // Ray from inside sphere 0, along +z: every anyhit owner must be 0 and
  // t within the circumscribed radius band.
  TraversalStats st;
  std::set<std::uint32_t> owners;
  accel.trace(Ray{{0, 0, 0}, {0, 0, 1}, 0.0f, 3.0f},
              [&](std::uint32_t owner, float t) {
                owners.insert(owner);
                EXPECT_GT(t, 0.5f);
                EXPECT_LT(t, 1.5f);
              },
              st);
  EXPECT_EQ(owners, std::set<std::uint32_t>{0u});
  EXPECT_GT(st.anyhit_calls, 0u);
  EXPECT_GE(st.isect_calls, st.anyhit_calls);
}

TEST(ParallelLaunch, RunsEveryRayExactlyOnce) {
  std::vector<std::atomic<int>> hits(10000);
  for (auto& h : hits) h.store(0);
  const auto stats = parallel_launch(hits.size(), 0,
                                     [&](TraversalStats&, std::size_t i) {
                                       hits[i].fetch_add(1);
                                     });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GT(stats.seconds, 0.0);
}

TEST(ParallelLaunch, HonoursTheWorkerCount) {
  std::atomic<int> max_tid{0};
  parallel_launch(1000, 2, [&](TraversalStats&, std::size_t) {
    int tid = omp_get_thread_num();
    int cur = max_tid.load();
    while (tid > cur && !max_tid.compare_exchange_weak(cur, tid)) {
    }
  });
  EXPECT_LT(max_tid.load(), 2);
}

TEST(ParallelLaunch, SumsPerThreadStats) {
  const auto dataset = data::taxi_gps(3000, 602);
  const SphereAccel accel(dataset.points, 0.3f);
  const auto stats = parallel_launch(
      dataset.size(), 4, [&](TraversalStats& st, std::size_t i) {
        accel.trace(Ray::point_query(dataset.points[i]),
                    [](std::uint32_t) {}, st);
      });
  EXPECT_EQ(stats.work.rays, dataset.size());
  EXPECT_GT(stats.work.nodes_visited, dataset.size());
  EXPECT_GT(stats.nodes_per_ray(), 1.0);
}

TEST(SphereAccel, SameTreeAtEveryThreadCount) {
  // The build's thread count changes how it runs, never the tree.
  const auto dataset = data::taxi_gps(1000, 603);
  const SphereAccel accel(dataset.points, 0.3f, 1);
  for (const auto& node : accel.bvh().nodes) {
    if (node.is_leaf()) {
      EXPECT_LE(node.count, kLeafSize);
    }
  }
  EXPECT_FALSE(accel.wide_bvh().empty());
  const SphereAccel four(dataset.points, 0.3f, 4);
  EXPECT_EQ(accel.bvh().prim_index, four.bvh().prim_index);
  EXPECT_EQ(accel.bvh().nodes.size(), four.bvh().nodes.size());
}

}  // namespace
}  // namespace rtd::rt
