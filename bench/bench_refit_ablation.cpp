// Ablation: accel UPDATE (refit) vs full rebuild across an ε sweep.
// Extends the paper's §VI-B multi-run argument to ε changes: the sphere
// BVH's topology depends only on the centers, so a new ε needs only a
// bounds refit — the OptiX accel-update path.
//
//   ./bench_refit_ablation [--scale F] [--reps N]
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/clusterer.hpp"
#include "data/generators.hpp"
#include "rt/context.hpp"

int main(int argc, char** argv) {
  using namespace rtd;
  const Flags flags = bench::parse_flags(argc, argv, {
      {"n", "points [100000]"}});
  const auto cfg = bench::BenchConfig::from_flags(flags);
  bench::print_header("Ablation: accel refit vs rebuild across eps sweep",
                      "extension of §VI-B to eps changes", cfg);

  const auto n = cfg.scaled(
      static_cast<std::size_t>(flags.get_int("n", 100000)));
  const auto dataset = data::taxi_gps(n, 2023);
  const std::vector<float> eps_sweep{0.1f, 0.2f, 0.3f, 0.4f, 0.5f};
  const rt::Context ctx;

  // Rebuild path: fresh accel per eps.
  const double rebuild_total = bench::time_median(cfg.reps, [&] {
    for (const float eps : eps_sweep) {
      const auto accel = ctx.build_spheres(dataset.points, eps);
      (void)accel;
    }
  });

  // Refit path: one build, then bounds updates.
  const double refit_total = bench::time_median(cfg.reps, [&] {
    auto accel = ctx.build_spheres(dataset.points, eps_sweep.front());
    for (std::size_t i = 1; i < eps_sweep.size(); ++i) {
      accel.set_radius(eps_sweep[i], ctx.options().threads);
    }
  });

  Table table({"strategy", "5-eps sweep time", "speedup"});
  table.add_row({"rebuild per eps", Table::seconds(rebuild_total), "1.00x"});
  table.add_row({"build once + refit", Table::seconds(refit_total),
                 Table::speedup(rebuild_total / refit_total)});
  if (cfg.csv) {
    table.print_csv();
  } else {
    table.print();
  }

  // End to end: an RT session refits its scene at every new eps.
  std::printf("\nend-to-end eps sweep with an RT session (refit per eps):\n");
  Clusterer session(dataset.points,
                    Options().with_backend(index::IndexKind::kBvhRt));
  for (const float eps : eps_sweep) {
    Timer t;
    const ClusterResult& r = session.run(eps, 25);
    std::printf("  eps=%.2f: %u clusters, %zu noise, %.1f ms (%s)\n",
                static_cast<double>(eps), r.cluster_count, r.noise_count(),
                t.millis(), r.stats.index_refitted ? "refit" : "build");
  }
  return 0;
}
