// Figure 4: speedup over CUDA-DClust+ on a small dataset (16K 3DRoad
// points, minPts=100), varying ε, for all four implementations.  This is
// the only configuration where G-DBSCAN and CUDA-DClust+ fit in device
// memory (they OOM beyond ~100K points, §V-B1 — reproduced by the memory
// budget in gdbscan).
//
//   ./bench_fig4_small_dataset [--scale F] [--reps N]
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/rt_dbscan.hpp"
#include "dbscan/dclustplus.hpp"
#include "dbscan/fdbscan.hpp"
#include "dbscan/gdbscan.hpp"
#include "data/generators.hpp"

int main(int argc, char** argv) {
  using namespace rtd;
  const Flags flags = bench::parse_flags(argc, argv, {
      {"n", "points [16384]"},
      {"minpts", "minPts [100]"}});
  const auto cfg = bench::BenchConfig::from_flags(flags);
  bench::print_header(
      "Fig 4: speedup over CUDA-DClust+ on 16K 3DRoad, varying eps",
      "paper Fig 4 (16K pts, minPts=100)", cfg);

  const auto n = cfg.scaled(
      static_cast<std::size_t>(flags.get_int("n", 16384)));
  const auto min_pts =
      static_cast<std::uint32_t>(flags.get_int("minpts", 100));
  const auto dataset = data::road_network(n, 2023);

  Table table({"eps", "DClust+ dev(ms)", "G-DBSCAN dev(ms)",
               "FDBSCAN dev(ms)", "RT dev(ms)", "G-DBSCAN spd",
               "FDBSCAN spd", "RT-DBSCAN spd"});

  for (const float eps : {0.5f, 0.8f, 1.2f, 1.8f, 2.5f}) {
    const dbscan::Params params{eps, min_pts};

    dbscan::DclustPlusResult dc;
    bench::time_median(cfg.reps, [&] {
      dc = dbscan::dclust_plus(dataset.points, params);
    });
    dbscan::GdbscanResult gd;
    bench::time_median(cfg.reps, [&] {
      gd = dbscan::gdbscan(dataset.points, params);
    });
    dbscan::FdbscanResult fd;
    bench::time_median(cfg.reps, [&] {
      fd = dbscan::fdbscan(dataset.points, params);
    });
    core::RtDbscanResult rt;
    bench::time_median(cfg.reps, [&] {
      rt = core::rt_dbscan(dataset.points, params);
    });

    bench::verify(dataset.points, params, dc.clustering, rt.clustering,
                  "dclust+ vs rt");
    bench::verify(dataset.points, params, gd.clustering, rt.clustering,
                  "gdbscan vs rt");
    bench::verify(dataset.points, params, fd.clustering, rt.clustering,
                  "fdbscan vs rt");

    const double dc_dev = bench::modeled_dclust_seconds(dc, dataset.size());
    const double gd_dev = bench::modeled_gdbscan_seconds(gd);
    const double fd_dev = bench::modeled_fd_seconds(fd, dataset.size());
    const double rt_dev = bench::modeled_rt_seconds(rt, dataset.size());
    table.add_row({Table::num(eps, 2), Table::num(dc_dev * 1e3, 2),
                   Table::num(gd_dev * 1e3, 2), Table::num(fd_dev * 1e3, 2),
                   Table::num(rt_dev * 1e3, 2),
                   Table::speedup(dc_dev / gd_dev),
                   Table::speedup(dc_dev / fd_dev),
                   Table::speedup(dc_dev / rt_dev)});
  }
  if (cfg.csv) {
    table.print_csv();
  } else {
    table.print();
  }
  std::printf(
      "\ndev(ms) = modeled device time; speedup columns are relative to "
      "CUDA-DClust+ (the paper's Fig 4 baseline)\n");
  return 0;
}
