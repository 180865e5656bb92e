// The device cost model is part of the reproduction's scientific claim, so
// its invariants are tested: calibration ratios from the paper, monotonicity
// in work, and the qualitative orderings the benches of docs/BENCHMARKS.md
// rely on.
#include "rt/cost_model.hpp"

#include <gtest/gtest.h>

namespace rtd::rt {
namespace {

TraversalStats work(std::uint64_t rays, std::uint64_t nodes,
                    std::uint64_t isect, std::uint64_t anyhit = 0) {
  TraversalStats s;
  s.rays = rays;
  s.nodes_visited = nodes;
  s.aabb_tests = 2 * nodes;
  s.isect_calls = isect;
  s.anyhit_calls = anyhit;
  return s;
}

TEST(CostModel, ZeroWorkCostsNothing) {
  const CostModel m;
  EXPECT_EQ(m.rt_phase_seconds({}), 0.0);
  EXPECT_EQ(m.sw_phase_seconds({}), 0.0);
  EXPECT_EQ(m.hw_build_seconds(0), 0.0);
  EXPECT_EQ(m.sw_build_seconds(0), 0.0);
}

TEST(CostModel, HardwareTraversalCheaperThanSoftware) {
  // The entire point of RT cores: identical work must cost ~an order of
  // magnitude less on the RT path.
  const CostModel m;
  const auto w = work(1000, 100000, 50000);
  const double hw = m.rt_phase_seconds(w);
  const double sw = m.sw_phase_seconds(w);
  EXPECT_LT(hw, sw);
  EXPECT_GT(sw / hw, 2.0);
  EXPECT_LT(sw / hw, 12.0);
}

TEST(CostModel, SphereGasBuildAbout2p5xDearer) {
  // Paper §V-B2: "BVH build time of RT-DBSCAN was only 2.5x slower than
  // FDBSCAN".
  const CostModel m;
  const double ratio = m.hw_build_seconds(1000000) /
                       m.sw_build_seconds(1000000);
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 3.0);
}

TEST(CostModel, AnyHitDominatesTrianglePhases) {
  // §VI-C: the AnyHit round-trip is the expensive part of triangle mode.
  const CostModel m;
  const auto no_anyhit = work(1000, 10000, 10000, 0);
  const auto with_anyhit = work(1000, 10000, 10000, 10000);
  EXPECT_GT(m.rt_triangle_phase_seconds(with_anyhit),
            2.0 * m.rt_triangle_phase_seconds(no_anyhit));
}

TEST(CostModel, MonotoneInEveryCounter) {
  const CostModel m;
  const auto base = work(1000, 10000, 5000, 100);
  auto more = base;
  more.nodes_visited *= 2;
  EXPECT_GT(m.rt_phase_seconds(more), m.rt_phase_seconds(base));
  more = base;
  more.isect_calls *= 2;
  EXPECT_GT(m.rt_phase_seconds(more), m.rt_phase_seconds(base));
  more = base;
  more.anyhit_calls *= 2;
  EXPECT_GT(m.rt_phase_seconds(more), m.rt_phase_seconds(base));
}

TEST(CostModel, LaunchOverheadOnlyWhenRaysLaunched) {
  const CostModel m;
  TraversalStats none;
  EXPECT_EQ(m.rt_phase_seconds(none), 0.0);
  TraversalStats one;
  one.rays = 1;
  EXPECT_GT(m.rt_phase_seconds(one), 0.0);
  EXPECT_NEAR(m.rt_phase_seconds(one), m.launch_overhead_ns * 1e-9, 1e-12);
}

TEST(CostModel, BuildScalesLinearly) {
  const CostModel m;
  EXPECT_NEAR(m.hw_build_seconds(2000000), 2.0 * m.hw_build_seconds(1000000),
              1e-12);
  EXPECT_NEAR(m.hw_triangle_build_seconds(80),
              80.0 * m.hw_triangle_build_ns * 1e-9, 1e-15);
}

TEST(CostModel, StatsAccumulationMatchesSum) {
  const CostModel m;
  const auto a = work(10, 100, 50, 5);
  const auto b = work(20, 300, 80, 1);
  TraversalStats sum = a;
  sum += b;
  // Per-op linearity: cost(a+b) = cost(a) + cost(b) when both have rays
  // (overhead is charged once per phase, not per ray batch — verify the
  // charge model explicitly).
  const double combined = m.rt_phase_seconds(sum);
  const double parts = m.rt_phase_seconds(a) + m.rt_phase_seconds(b);
  EXPECT_NEAR(parts - combined, m.launch_overhead_ns * 1e-9, 1e-12);
}

}  // namespace
}  // namespace rtd::rt
