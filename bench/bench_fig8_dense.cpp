// Figure 8 + Tables II/III: the NGSIM dense regime (§V-C).  A very dense
// trajectory dataset where, at tiny ε with minPts=100, zero clusters form.
// The paper reports extreme RT speedups here (up to 5500x on hardware);
// this harness reproduces the workload shape: raw times vs ε (Table II) and
// vs n (Table III), plus per-query traversal-work counters that explain the
// pruning.
//
//   ./bench_fig8_dense [--scale F] [--reps N]
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/rt_dbscan.hpp"
#include "dbscan/fdbscan.hpp"
#include "data/generators.hpp"

namespace {

using namespace rtd;

void vary_eps(const data::Dataset& dataset, std::uint32_t min_pts,
              const bench::BenchConfig& cfg) {
  std::printf("-- Table II / Fig 8a: varying eps (n=%zu, minPts=%u) --\n",
              dataset.size(), min_pts);
  Table table({"eps", "FD dev(s)", "RT dev(s)", "speedup", "clusters",
               "RT isect/ray"});
  for (const float eps : {0.0001f, 0.00025f, 0.0005f, 0.00075f, 0.001f}) {
    const dbscan::Params params{eps, min_pts};
    dbscan::FdbscanResult fd;
    bench::time_median(cfg.reps, [&] {
      fd = dbscan::fdbscan(dataset.points, params);
    });
    core::RtDbscanResult rt;
    bench::time_median(cfg.reps, [&] {
      rt = core::rt_dbscan(dataset.points, params);
    });
    bench::verify(dataset.points, params, fd.clustering, rt.clustering,
                  "fig8a");
    const double fd_dev = bench::modeled_fd_seconds(fd, dataset.size());
    const double rt_dev = bench::modeled_rt_seconds(rt, dataset.size());
    table.add_row({Table::num(eps, 5), Table::num(fd_dev, 5),
                   Table::num(rt_dev, 5), Table::speedup(fd_dev / rt_dev),
                   Table::integer(rt.clustering.cluster_count),
                   Table::num(rt.phase1.isect_per_ray(), 1)});
  }
  if (cfg.csv) {
    table.print_csv();
  } else {
    table.print();
  }
  std::printf("\n");
}

void vary_size(data::Dataset& full, float eps, std::uint32_t min_pts,
               const std::vector<std::size_t>& ns,
               const bench::BenchConfig& cfg) {
  std::printf("-- Table III / Fig 8b: varying size (eps=%.4f, minPts=%u) --\n",
              static_cast<double>(eps), min_pts);
  Table table({"n", "FD dev(s)", "RT dev(s)", "speedup", "clusters"});
  const dbscan::Params params{eps, min_pts};
  for (const std::size_t n : ns) {
    std::span<const geom::Vec3> points(full.points.data(), n);
    dbscan::FdbscanResult fd;
    bench::time_median(cfg.reps, [&] {
      fd = dbscan::fdbscan(points, params);
    });
    core::RtDbscanResult rt;
    bench::time_median(cfg.reps, [&] {
      rt = core::rt_dbscan(points, params);
    });
    bench::verify(points, params, fd.clustering, rt.clustering, "fig8b");
    const double fd_dev = bench::modeled_fd_seconds(fd, n);
    const double rt_dev = bench::modeled_rt_seconds(rt, n);
    table.add_row({Table::integer(static_cast<std::int64_t>(n)),
                   Table::num(fd_dev, 5), Table::num(rt_dev, 5),
                   Table::speedup(fd_dev / rt_dev),
                   Table::integer(rt.clustering.cluster_count)});
  }
  if (cfg.csv) {
    table.print_csv();
  } else {
    table.print();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = bench::parse_flags(argc, argv, {
      {"n", "points [100000]"},
      {"minpts", "minPts [100]"}});
  const auto cfg = bench::BenchConfig::from_flags(flags);
  bench::print_header("Fig 8 + Tables II/III: NGSIM dense-dataset regime",
                      "paper §V-C (zero clusters at tiny eps)", cfg);

  const auto n = cfg.scaled(
      static_cast<std::size_t>(flags.get_int("n", 100000)));
  const auto min_pts =
      static_cast<std::uint32_t>(flags.get_int("minpts", 100));

  auto dataset = data::vehicle_trajectories(n, 2023);
  vary_eps(dataset, min_pts, cfg);

  std::vector<std::size_t> ns;
  for (const std::size_t base : {12500u, 25000u, 50000u, 100000u}) {
    ns.push_back(cfg.scaled(base));
  }
  vary_size(dataset, 0.0005f, min_pts, ns, cfg);
  return 0;
}
