// §VI-C: sphere Intersection-program geometry vs triangle-tessellated
// geometry with AnyHit collection.  The paper measured 2-5x degradation for
// triangles; this harness reports times and the work-counter explanation
// (triangles multiply the primitive count and add AnyHit invocations).
//
//   ./bench_triangle_mode [--scale F] [--reps N]
//                         [--width auto|binary|wide|quantized]
//
// --width forces one traversal layout for every run (default auto); the
// second table sweeps triangle mode across all three layouts regardless,
// so the §VI-C experiment reports the wide-kernel trade alongside the
// sphere-vs-triangle one.
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/rt_dbscan.hpp"
#include "data/generators.hpp"

int main(int argc, char** argv) {
  using namespace rtd;
  const Flags flags(argc, argv);
  const auto cfg = bench::BenchConfig::from_flags(flags);
  bench::print_header(
      "Sec VI-C: sphere Intersection program vs triangle+AnyHit geometry",
      "paper §VI-C (2x-5x degradation for triangles)", cfg);

  const auto n = cfg.scaled(
      static_cast<std::size_t>(flags.get_int("n", 20000)));
  const float eps = static_cast<float>(flags.get_double("eps", 0.3));
  const auto min_pts =
      static_cast<std::uint32_t>(flags.get_int("minpts", 20));
  const auto width_arg = cli::width_flag(flags);
  if (!width_arg) return EXIT_FAILURE;
  const rt::TraversalWidth forced_width = *width_arg;
  const auto dataset = data::taxi_gps(n, 2023);
  const dbscan::Params params{eps, min_pts};

  Table table({"geometry", "prims/point", "dev time", "slowdown", "cpu time",
               "anyhit calls"});
  const rt::CostModel model;

  core::RtDbscanOptions sphere_opts;
  sphere_opts.device.build.width = forced_width;
  core::RtDbscanResult sphere_result;
  const double sphere_cpu = bench::time_median(cfg.reps, [&] {
    sphere_result = core::rt_dbscan(dataset.points, params, sphere_opts);
  });
  const double sphere_dev =
      bench::modeled_rt_seconds(sphere_result, dataset.size(), model);
  table.add_row({"spheres", "1", Table::seconds(sphere_dev), "1.00x",
                 Table::seconds(sphere_cpu), "0"});

  for (const int subdiv : {0, 1}) {
    core::RtDbscanOptions opts;
    opts.geometry = core::GeometryMode::kTriangles;
    opts.triangle_subdivisions = subdiv;
    opts.device.build.width = forced_width;
    core::RtDbscanResult tri_result;
    const double tri_cpu = bench::time_median(cfg.reps, [&] {
      tri_result = core::rt_dbscan(dataset.points, params, opts);
    });
    bench::verify(dataset.points, params, sphere_result.clustering,
                  tri_result.clustering, "sphere vs triangle geometry");
    const int tris_per_point = 20 << (2 * subdiv);
    const double tri_dev =
        model.hw_triangle_build_seconds(dataset.size() *
                                        static_cast<std::size_t>(
                                            tris_per_point)) +
        model.rt_triangle_phase_seconds(tri_result.phase1.work) +
        model.rt_triangle_phase_seconds(tri_result.phase2.work);

    char label[64];
    std::snprintf(label, sizeof label, "triangles (icosphere s=%d)", subdiv);
    char prims[16];
    std::snprintf(prims, sizeof prims, "%d", tris_per_point);
    table.add_row(
        {label, prims, Table::seconds(tri_dev),
         Table::speedup(tri_dev / sphere_dev), Table::seconds(tri_cpu),
         Table::integer(static_cast<std::int64_t>(
             tri_result.phase1.work.anyhit_calls +
             tri_result.phase2.work.anyhit_calls))});
  }
  if (cfg.csv) {
    table.print_csv();
  } else {
    table.print();
  }
  std::printf("\npaper: triangle mode 2x-5x slower; slowdown column should "
              "land in/near that band.\n");

  // -------------------------------------------------------------------------
  // Triangle-mode traversal width sweep (PR 4): the §VI-C scene over the
  // binary, wide (8-ary SoA) and quantized (128-byte node) kernels.  Same
  // clustering on all three (verified); nodes/query shows the pop
  // reduction the wide layouts buy on the triangle-inflated tree.
  // -------------------------------------------------------------------------
  std::printf("\n--- triangle-mode traversal width sweep (icosphere s=1, "
              "%zu tris) ---\n", dataset.size() * 80);
  Table wsweep({"width", "cpu time", "speedup", "nodes/query",
                "isect/query"});
  double binary_cpu = 0.0;
  for (const rt::TraversalWidth width :
       {rt::TraversalWidth::kBinary, rt::TraversalWidth::kWide,
        rt::TraversalWidth::kWideQuantized}) {
    core::RtDbscanOptions opts;
    opts.geometry = core::GeometryMode::kTriangles;
    opts.triangle_subdivisions = 1;
    opts.device.build.width = width;
    core::RtDbscanResult r;
    const double cpu = bench::time_median(cfg.reps, [&] {
      r = core::rt_dbscan(dataset.points, params, opts);
    });
    bench::verify(dataset.points, params, sphere_result.clustering,
                  r.clustering, rt::to_string(width));
    if (width == rt::TraversalWidth::kBinary) binary_cpu = cpu;
    wsweep.add_row(
        {rt::to_string(width), Table::seconds(cpu),
         Table::speedup(binary_cpu / cpu),
         Table::num(r.phase1.nodes_per_ray() + r.phase2.nodes_per_ray(), 1),
         Table::num(r.phase1.isect_per_ray() + r.phase2.isect_per_ray(),
                    1)});
  }
  if (cfg.csv) {
    wsweep.print_csv();
  } else {
    wsweep.print();
  }
  return 0;
}
