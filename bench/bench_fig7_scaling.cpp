// Figure 7: growth rate of execution time vs dataset size on the 3DIono
// stand-in — RT-DBSCAN's curve should grow visibly slower than FDBSCAN's.
// Reports absolute times plus per-decade growth factors.
//
//   ./bench_fig7_scaling [--scale F] [--reps N]
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/rt_dbscan.hpp"
#include "dbscan/fdbscan.hpp"
#include "data/generators.hpp"

int main(int argc, char** argv) {
  using namespace rtd;
  const Flags flags = bench::parse_flags(argc, argv, {
      {"eps", "search radius [2.0]"},
      {"minpts", "minPts [10]"}});
  const auto cfg = bench::BenchConfig::from_flags(flags);
  bench::print_header("Fig 7: execution-time scalability on 3DIono",
                      "paper Fig 7 (3DIono, time vs n)", cfg);

  const float eps = static_cast<float>(flags.get_double("eps", 2.0));
  const auto min_pts =
      static_cast<std::uint32_t>(flags.get_int("minpts", 10));
  std::vector<std::size_t> ns;
  for (const std::size_t n : {8000u, 16000u, 32000u, 64000u, 128000u}) {
    ns.push_back(cfg.scaled(n));
  }

  auto full = data::ionosphere3d(ns.back(), 2023);
  const dbscan::Params params{eps, min_pts};

  Table table({"n", "FD dev(s)", "RT dev(s)", "FD growth", "RT growth"});
  double prev_fd = 0.0;
  double prev_rt = 0.0;
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
    bench::verify(points, params, fd.clustering, rt.clustering, "fig7");

    const double fd_dev = bench::modeled_fd_seconds(fd, n);
    const double rt_dev = bench::modeled_rt_seconds(rt, n);
    table.add_row(
        {Table::integer(static_cast<std::int64_t>(n)),
         Table::num(fd_dev, 5), Table::num(rt_dev, 5),
         prev_fd > 0 ? Table::speedup(fd_dev / prev_fd) : "-",
         prev_rt > 0 ? Table::speedup(rt_dev / prev_rt) : "-"});
    prev_fd = fd_dev;
    prev_rt = rt_dev;
  }
  if (cfg.csv) {
    table.print_csv();
  } else {
    table.print();
  }
  std::printf(
      "\ngrowth columns: time(n) / time(n/2); RT-DBSCAN should grow no "
      "faster than FDBSCAN.\n");
  return 0;
}
