// §VI-C: sphere Intersection-program geometry vs triangle-tessellated
// geometry with AnyHit collection.  The paper measured 2-5x degradation for
// triangles; this harness reports times and the work-counter explanation
// (triangles multiply the primitive count and add AnyHit invocations).
//
//   ./bench_triangle_mode [--scale F] [--reps N]
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/rt_dbscan.hpp"
#include "data/generators.hpp"

int main(int argc, char** argv) {
  using namespace rtd;
  const Flags flags = bench::parse_flags(argc, argv, {
      {"n", "points [20000]"},
      {"eps", "search radius [0.3]"},
      {"minpts", "minPts [20]"}});
  const auto cfg = bench::BenchConfig::from_flags(flags);
  bench::print_header(
      "Sec VI-C: sphere Intersection program vs triangle+AnyHit geometry",
      "paper §VI-C (2x-5x degradation for triangles)", cfg);

  const auto n = cfg.scaled(
      static_cast<std::size_t>(flags.get_int("n", 20000)));
  const float eps = static_cast<float>(flags.get_double("eps", 0.3));
  const auto min_pts =
      static_cast<std::uint32_t>(flags.get_int("minpts", 20));
  const auto dataset = data::taxi_gps(n, 2023);
  const dbscan::Params params{eps, min_pts};
  const dbscan::Params tri_params{eps, min_pts, index::IndexKind::kTriangles};

  Table table({"geometry", "prims/point", "dev time", "slowdown", "cpu time",
               "anyhit calls", "nodes/query"});
  const rt::CostModel model;
  const auto nodes_per_query = [](const core::RtDbscanResult& r) {
    return Table::num(r.phase1.nodes_per_ray() + r.phase2.nodes_per_ray(), 1);
  };

  core::RtDbscanResult sphere_result;
  const double sphere_cpu = bench::time_median(cfg.reps, [&] {
    sphere_result = core::rt_dbscan(dataset.points, params);
  });
  const double sphere_dev =
      bench::modeled_rt_seconds(sphere_result, dataset.size(), model);
  table.add_row({"spheres", "1", Table::seconds(sphere_dev), "1.00x",
                 Table::seconds(sphere_cpu), "0",
                 nodes_per_query(sphere_result)});

  for (const int subdiv : {0, 1}) {
    core::RtDbscanOptions opts;
    opts.triangle_subdivisions = subdiv;
    core::RtDbscanResult tri_result;
    const double tri_cpu = bench::time_median(cfg.reps, [&] {
      tri_result = core::rt_dbscan(dataset.points, tri_params, opts);
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
             tri_result.phase2.work.anyhit_calls)),
         nodes_per_query(tri_result)});
  }
  if (cfg.csv) {
    table.print_csv();
  } else {
    table.print();
  }
  std::printf("\npaper: triangle mode 2x-5x slower; slowdown column should "
              "land in/near that band.\n");
  return 0;
}
