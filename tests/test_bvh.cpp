#include "rt/bvh.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace rtd::rt {
namespace {

using geom::Aabb;
using geom::Vec3;

std::vector<Aabb> random_sphere_bounds(std::size_t n, float radius,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Aabb> bounds;
  bounds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    bounds.push_back(Aabb::of_sphere(
        Vec3{rng.uniformf(0, 100), rng.uniformf(0, 100),
             rng.uniformf(0, 100)},
        radius));
  }
  return bounds;
}

/// The two code paths of the LBVH builder: the parallel build (radix sort)
/// and the serial one (std::sort) the delta-tail trees use.
enum class LbvhMode { kParallel, kSerial };

BuildOptions options_for(LbvhMode mode) {
  BuildOptions opts;
  opts.parallel = mode == LbvhMode::kParallel;
  return opts;
}

class BvhBuilderTest : public ::testing::TestWithParam<LbvhMode> {};

TEST_P(BvhBuilderTest, EmptyInputGivesEmptyBvh) {
  BuildOptions opts = options_for(GetParam());
  const Bvh bvh = build_bvh({}, opts);
  EXPECT_TRUE(bvh.empty());
  EXPECT_EQ(bvh.prim_count(), 0u);
  EXPECT_TRUE(bvh.validate({}).empty());
}

TEST_P(BvhBuilderTest, SinglePrimitiveIsLeafRoot) {
  BuildOptions opts = options_for(GetParam());
  const std::vector<Aabb> bounds{Aabb::of_sphere(Vec3{1, 2, 3}, 0.5f)};
  const Bvh bvh = build_bvh(bounds, opts);
  ASSERT_EQ(bvh.nodes.size(), 1u);
  EXPECT_TRUE(bvh.nodes[0].is_leaf());
  EXPECT_EQ(bvh.nodes[0].count, 1u);
  EXPECT_TRUE(bvh.validate(bounds).empty()) << bvh.validate(bounds);
}

TEST_P(BvhBuilderTest, ValidStructureOnRandomInput) {
  BuildOptions opts = options_for(GetParam());
  for (const std::size_t n : {2u, 3u, 17u, 100u, 1000u, 20000u}) {
    const auto bounds = random_sphere_bounds(n, 1.0f, n);
    const Bvh bvh = build_bvh(bounds, opts);
    EXPECT_EQ(bvh.prim_count(), n);
    const std::string err = bvh.validate(bounds);
    EXPECT_TRUE(err.empty()) << "n=" << n << ": " << err;
  }
}

TEST_P(BvhBuilderTest, ValidOnAllIdenticalPrimitives) {
  // Degenerate: all Morton codes equal; builders must fall back to median
  // splits and still terminate with a valid tree.
  BuildOptions opts = options_for(GetParam());
  const std::vector<Aabb> bounds(5000, Aabb::of_sphere(Vec3{5, 5, 5}, 1.0f));
  const Bvh bvh = build_bvh(bounds, opts);
  const std::string err = bvh.validate(bounds);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_LE(bvh.stats.max_depth, 40u);  // balanced despite degeneracy
}

TEST_P(BvhBuilderTest, ValidOnCollinearPoints) {
  BuildOptions opts = options_for(GetParam());
  std::vector<Aabb> bounds;
  for (int i = 0; i < 3000; ++i) {
    bounds.push_back(
        Aabb::of_sphere(Vec3{static_cast<float>(i) * 0.01f, 0, 0}, 0.05f));
  }
  const Bvh bvh = build_bvh(bounds, opts);
  const std::string err = bvh.validate(bounds);
  EXPECT_TRUE(err.empty()) << err;
}

TEST_P(BvhBuilderTest, RootBoundsEncloseScene) {
  BuildOptions opts = options_for(GetParam());
  const auto bounds = random_sphere_bounds(2000, 0.5f, 99);
  const Bvh bvh = build_bvh(bounds, opts);
  for (const auto& b : bounds) {
    EXPECT_TRUE(bvh.nodes[0].bounds.contains(b));
  }
}

TEST_P(BvhBuilderTest, LeafSizeRespected) {
  const auto bounds = random_sphere_bounds(5000, 0.5f, 7);
  const Bvh bvh = build_bvh(bounds, options_for(GetParam()));
  for (const auto& node : bvh.nodes) {
    if (node.is_leaf()) {
      EXPECT_LE(node.count, kLeafSize);
      EXPECT_GE(node.count, 1u);
    }
  }
}

TEST_P(BvhBuilderTest, StatsAreConsistent) {
  BuildOptions opts = options_for(GetParam());
  const auto bounds = random_sphere_bounds(10000, 0.5f, 21);
  const Bvh bvh = build_bvh(bounds, opts);
  EXPECT_EQ(bvh.stats.node_count, bvh.nodes.size());
  std::uint32_t leaves = 0;
  for (const auto& n : bvh.nodes) leaves += n.is_leaf();
  EXPECT_EQ(bvh.stats.leaf_count, leaves);
  // Binary tree with adjacent child pairs: nodes = 2 * leaves - 1.
  EXPECT_EQ(bvh.stats.node_count, 2 * leaves - 1);
  EXPECT_GT(bvh.stats.max_depth, 0u);
  EXPECT_GT(bvh.stats.sah_cost, 0.0f);
  EXPECT_GE(bvh.stats.build_seconds, 0.0);
}

TEST_P(BvhBuilderTest, ParallelAndSerialProduceValidTrees) {
  BuildOptions opts = options_for(GetParam());
  const auto bounds = random_sphere_bounds(8000, 0.5f, 33);
  opts.parallel = true;
  const Bvh par = build_bvh(bounds, opts);
  opts.parallel = false;
  const Bvh ser = build_bvh(bounds, opts);
  EXPECT_TRUE(par.validate(bounds).empty());
  EXPECT_TRUE(ser.validate(bounds).empty());
  // Same builder on same input: identical topology regardless of the sort
  // implementation (both sorts are stable).
  EXPECT_EQ(par.nodes.size(), ser.nodes.size());
  EXPECT_EQ(par.prim_index, ser.prim_index);
}

INSTANTIATE_TEST_SUITE_P(Builders, BvhBuilderTest,
                         ::testing::Values(LbvhMode::kParallel,
                                           LbvhMode::kSerial),
                         [](const auto& param_info) {
                           return param_info.param == LbvhMode::kParallel
                                      ? "Lbvh"
                                      : "SerialLbvh";
                         });

}  // namespace
}  // namespace rtd::rt
