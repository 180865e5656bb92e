// Using the RT-FindNeighborhood primitive directly (Algorithm 2), outside
// of DBSCAN: kernel density estimation over a point cloud.  Shows that the
// primitive generalizes to any fixed-radius-neighbor algorithm, as the
// paper's related work (force-directed layout, photon mapping) does.
//
//   ./rt_neighbors_demo [--n 50000] [--radius 0.5]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/flags.hpp"
#include "core/rt_find_neighbors.hpp"
#include "data/generators.hpp"
#include "rt/context.hpp"

int main(int argc, char** argv) {
  const rtd::Flags flags = rtd::Flags::parse_or_exit(argc, argv, {
      {"n", "points [50000]"},
      {"radius", "kernel radius [0.5]"}});
  const auto n = static_cast<std::size_t>(flags.get_int("n", 50000));
  const float radius = static_cast<float>(flags.get_double("radius", 0.5));

  const auto dataset = rtd::data::two_rings(n);
  rtd::rt::Context ctx;
  const auto accel = ctx.build_spheres(dataset.points, radius);
  std::printf("RT neighbor primitive demo: %zu points, radius %.2f\n",
              dataset.size(), static_cast<double>(radius));
  std::printf("  BVH: %u nodes, built in %.2f ms\n",
              accel.build_stats().node_count,
              accel.build_stats().build_seconds * 1e3);

  // One ray per point: local density = neighbor count / disk area.
  std::vector<std::uint32_t> counts(dataset.size());
  const auto launch = ctx.launch(
      dataset.size(), [&](std::size_t i, rtd::rt::TraversalStats& st) {
        counts[i] = rtd::core::rt_count_neighbors(
            accel, dataset.points[i], static_cast<std::uint32_t>(i), st);
      });

  std::printf("  launch: %.2f ms, %.1f BVH nodes/ray, %.1f isect calls/ray\n",
              launch.seconds * 1e3, launch.nodes_per_ray(),
              launch.isect_per_ray());

  std::vector<std::uint32_t> sorted = counts;
  std::sort(sorted.begin(), sorted.end());
  const auto pick = [&](double q) {
    return sorted[static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1))];
  };
  std::printf("  neighbor-count percentiles: p10=%u p50=%u p90=%u max=%u\n",
              pick(0.10), pick(0.50), pick(0.90), sorted.back());

  // Density contrast between the rings and the background validates the
  // query: ring points should dominate the top decile.
  std::size_t ring_top = 0;
  std::size_t top_total = 0;
  const std::uint32_t p90 = pick(0.90);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    if (counts[i] >= p90) {
      ++top_total;
      const float r = rtd::geom::length(dataset.points[i]);
      const bool on_ring = (r > 3.0f && r < 5.0f) || (r > 9.0f && r < 11.0f);
      ring_top += on_ring;
    }
  }
  std::printf("  of the densest decile, %.1f%% lie on the rings\n",
              100.0 * static_cast<double>(ring_top) /
                  static_cast<double>(top_total));
  return 0;
}
