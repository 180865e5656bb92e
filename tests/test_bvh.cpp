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

/// The build thread counts every builder test runs at: four workers, and
/// the one-thread build the delta-tail trees use (inline on the caller).
enum class BuildThreads { kFour, kOne };

int threads_of(BuildThreads b) { return b == BuildThreads::kFour ? 4 : 1; }

class BvhBuilderTest : public ::testing::TestWithParam<BuildThreads> {};

TEST_P(BvhBuilderTest, EmptyInputGivesEmptyBvh) {
  const int threads = threads_of(GetParam());
  const Bvh bvh = build_bvh({}, threads);
  EXPECT_TRUE(bvh.empty());
  EXPECT_EQ(bvh.prim_count(), 0u);
  EXPECT_TRUE(bvh.validate({}).empty());
}

TEST_P(BvhBuilderTest, SinglePrimitiveIsLeafRoot) {
  const int threads = threads_of(GetParam());
  const std::vector<Aabb> bounds{Aabb::of_sphere(Vec3{1, 2, 3}, 0.5f)};
  const Bvh bvh = build_bvh(bounds, threads);
  ASSERT_EQ(bvh.nodes.size(), 1u);
  EXPECT_TRUE(bvh.nodes[0].is_leaf());
  EXPECT_EQ(bvh.nodes[0].count, 1u);
  EXPECT_TRUE(bvh.validate(bounds).empty()) << bvh.validate(bounds);
}

TEST_P(BvhBuilderTest, ValidStructureOnRandomInput) {
  const int threads = threads_of(GetParam());
  for (const std::size_t n : {2u, 3u, 17u, 100u, 1000u, 20000u}) {
    const auto bounds = random_sphere_bounds(n, 1.0f, n);
    const Bvh bvh = build_bvh(bounds, threads);
    EXPECT_EQ(bvh.prim_count(), n);
    const std::string err = bvh.validate(bounds);
    EXPECT_TRUE(err.empty()) << "n=" << n << ": " << err;
  }
}

TEST_P(BvhBuilderTest, ValidOnAllIdenticalPrimitives) {
  // Degenerate: all Morton codes equal; builders must fall back to median
  // splits and still terminate with a valid tree.
  const int threads = threads_of(GetParam());
  const std::vector<Aabb> bounds(5000, Aabb::of_sphere(Vec3{5, 5, 5}, 1.0f));
  const Bvh bvh = build_bvh(bounds, threads);
  const std::string err = bvh.validate(bounds);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_LE(bvh.stats.max_depth, 40u);  // balanced despite degeneracy
}

TEST_P(BvhBuilderTest, ValidOnCollinearPoints) {
  const int threads = threads_of(GetParam());
  std::vector<Aabb> bounds;
  for (int i = 0; i < 3000; ++i) {
    bounds.push_back(
        Aabb::of_sphere(Vec3{static_cast<float>(i) * 0.01f, 0, 0}, 0.05f));
  }
  const Bvh bvh = build_bvh(bounds, threads);
  const std::string err = bvh.validate(bounds);
  EXPECT_TRUE(err.empty()) << err;
}

TEST_P(BvhBuilderTest, RootBoundsEncloseScene) {
  const int threads = threads_of(GetParam());
  const auto bounds = random_sphere_bounds(2000, 0.5f, 99);
  const Bvh bvh = build_bvh(bounds, threads);
  for (const auto& b : bounds) {
    EXPECT_TRUE(bvh.nodes[0].bounds.contains(b));
  }
}

TEST_P(BvhBuilderTest, LeafSizeRespected) {
  const auto bounds = random_sphere_bounds(5000, 0.5f, 7);
  const Bvh bvh = build_bvh(bounds, threads_of(GetParam()));
  for (const auto& node : bvh.nodes) {
    if (node.is_leaf()) {
      EXPECT_LE(node.count, kLeafSize);
      EXPECT_GE(node.count, 1u);
    }
  }
}

TEST_P(BvhBuilderTest, StatsAreConsistent) {
  const int threads = threads_of(GetParam());
  const auto bounds = random_sphere_bounds(10000, 0.5f, 21);
  const Bvh bvh = build_bvh(bounds, threads);
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
  // Same builder on same input: the tree is node-for-node the same at every
  // thread count (the radix sort is stable and chunked per thread).
  const auto bounds = random_sphere_bounds(8000, 0.5f, 33);
  const Bvh base = build_bvh(bounds, threads_of(GetParam()));
  EXPECT_TRUE(base.validate(bounds).empty());
  for (const int threads : {1, 2, 3, 4}) {
    const Bvh other = build_bvh(bounds, threads);
    EXPECT_EQ(other.prim_index, base.prim_index) << threads << " threads";
    ASSERT_EQ(other.nodes.size(), base.nodes.size()) << threads << " threads";
    for (std::size_t i = 0; i < base.nodes.size(); ++i) {
      const BvhNode& a = base.nodes[i];
      const BvhNode& b = other.nodes[i];
      ASSERT_EQ(a.left_or_first, b.left_or_first) << "node " << i;
      ASSERT_EQ(a.count, b.count) << "node " << i;
      ASSERT_EQ(a.bounds.lo, b.bounds.lo) << "node " << i;
      ASSERT_EQ(a.bounds.hi, b.bounds.hi) << "node " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Builders, BvhBuilderTest,
                         ::testing::Values(BuildThreads::kFour,
                                           BuildThreads::kOne),
                         [](const auto& param_info) {
                           return param_info.param == BuildThreads::kFour
                                      ? "Lbvh"
                                      : "SerialLbvh";
                         });

}  // namespace
}  // namespace rtd::rt
