// BVH refit + SphereAccel::set_radius.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/rt_find_neighbors.hpp"
#include "data/generators.hpp"
#include "rt/bvh.hpp"
#include "rt/context.hpp"

namespace rtd::rt {
namespace {

using geom::Aabb;
using geom::Vec3;

TEST(BvhRefit, RejectsChangedPrimitiveCount) {
  std::vector<Aabb> bounds{Aabb::of_sphere(Vec3{0, 0, 0}, 1.0f),
                           Aabb::of_sphere(Vec3{5, 0, 0}, 1.0f)};
  Bvh bvh = build_bvh(bounds);
  bounds.pop_back();
  EXPECT_THROW(bvh.refit(bounds), std::invalid_argument);
}

TEST(BvhRefit, RefitBoundsValidAfterRadiusChange) {
  Rng rng(401);
  std::vector<Vec3> centers;
  std::vector<Aabb> bounds;
  for (int i = 0; i < 5000; ++i) {
    centers.push_back(Vec3{rng.uniformf(0, 50), rng.uniformf(0, 50),
                           rng.uniformf(0, 50)});
    bounds.push_back(Aabb::of_sphere(centers.back(), 0.5f));
  }
  Bvh bvh = build_bvh(bounds);
  ASSERT_TRUE(bvh.validate(bounds).empty());

  // Grow and shrink the radius; structure must stay valid both ways.
  for (const float radius : {2.0f, 0.1f, 1.0f}) {
    for (std::size_t i = 0; i < centers.size(); ++i) {
      bounds[i] = Aabb::of_sphere(centers[i], radius);
    }
    bvh.refit(bounds);
    const std::string err = bvh.validate(bounds);
    EXPECT_TRUE(err.empty()) << "radius " << radius << ": " << err;
    EXPECT_TRUE(bvh.scene_bounds.contains(bounds[0]));
  }
}

TEST(BvhRefit, EmptyBvhIsNoOp) {
  Bvh bvh;
  EXPECT_NO_THROW(bvh.refit({}));
}

TEST(SphereAccelRefit, QueriesMatchFreshBuildAfterSetRadius) {
  const auto dataset = data::taxi_gps(3000, 402);
  Context ctx;
  SphereAccel refitted = ctx.build_spheres(dataset.points, 0.2f);
  refitted.set_radius(0.5f, 0);
  const SphereAccel fresh = ctx.build_spheres(dataset.points, 0.5f);

  TraversalStats stats;
  for (std::uint32_t i = 0; i < dataset.size(); i += 37) {
    EXPECT_EQ(core::rt_count_neighbors(refitted, dataset.points[i], i, stats),
              core::rt_count_neighbors(fresh, dataset.points[i], i, stats))
        << "point " << i;
  }
  EXPECT_EQ(refitted.radius(), 0.5f);
}

TEST(SphereAccelRefit, RejectsNonPositiveRadius) {
  Context ctx;
  SphereAccel accel = ctx.build_spheres({{0, 0, 0}}, 1.0f);
  EXPECT_THROW(accel.set_radius(0.0f, 1), std::invalid_argument);
  EXPECT_THROW(accel.set_radius(-2.0f, 1), std::invalid_argument);
}

}  // namespace
}  // namespace rtd::rt
