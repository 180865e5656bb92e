// Figure 9: impact of early traversal termination (§VI-B).  Compares
// RT-DBSCAN (no early exit possible in the RT pipeline), FDBSCAN with the
// early-exit optimization, and FDBSCAN without, on Porto, 3DRoad, and NGSIM
// stand-ins across dataset sizes.
//
//   ./bench_fig9_early_exit [--scale F] [--reps N]
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/rt_dbscan.hpp"
#include "dbscan/fdbscan.hpp"
#include "data/generators.hpp"

namespace {

using namespace rtd;

void run_dataset(data::PaperDataset which, float eps, std::uint32_t min_pts,
                 const std::vector<std::size_t>& ns,
                 const bench::BenchConfig& cfg) {
  std::printf("-- %s (eps=%.4f, minPts=%u) --\n", data::to_string(which),
              static_cast<double>(eps), min_pts);
  auto full = data::make_paper_dataset(which, ns.back(), 2023);
  const dbscan::Params params{eps, min_pts};

  Table table({"n", "FD dev(s)", "FD-EarlyExit dev(s)", "RT dev(s)",
               "EE vs FD", "RT vs EE"});
  for (const std::size_t n : ns) {
    std::span<const geom::Vec3> points(full.points.data(), n);
    dbscan::FdbscanResult fd;
    bench::time_median(cfg.reps, [&] {
      fd = dbscan::fdbscan(points, params,
                           dbscan::FdbscanOptions::with_early_exit(false));
    });
    dbscan::FdbscanResult ee;
    bench::time_median(cfg.reps, [&] {
      ee = dbscan::fdbscan(points, params,
                           dbscan::FdbscanOptions::with_early_exit(true));
    });
    core::RtDbscanResult rt;
    bench::time_median(cfg.reps, [&] {
      rt = core::rt_dbscan(points, params);
    });
    bench::verify(points, params, fd.clustering, ee.clustering,
                  "fd vs fd-earlyexit");
    bench::verify(points, params, fd.clustering, rt.clustering, "fd vs rt");

    const double fd_dev = bench::modeled_fd_seconds(fd, n);
    const double ee_dev = bench::modeled_fd_seconds(ee, n);
    const double rt_dev = bench::modeled_rt_seconds(rt, n);
    table.add_row({Table::integer(static_cast<std::int64_t>(n)),
                   Table::num(fd_dev, 5), Table::num(ee_dev, 5),
                   Table::num(rt_dev, 5), Table::speedup(fd_dev / ee_dev),
                   Table::speedup(ee_dev / rt_dev)});
  }
  if (cfg.csv) {
    table.print_csv();
  } else {
    table.print();
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = bench::parse_flags(argc, argv);
  const auto cfg = bench::BenchConfig::from_flags(flags);
  bench::print_header("Fig 9: impact of early traversal termination",
                      "paper Fig 9a/9b/9c (§VI-B)", cfg);

  const auto sizes = [&](std::initializer_list<std::size_t> base) {
    std::vector<std::size_t> out;
    for (const auto n : base) out.push_back(cfg.scaled(n));
    return out;
  };

  // Small minPts is where early exit shines (paper: "especially true when
  // minPts is very small and BVH traversal can stop very early").
  run_dataset(data::PaperDataset::kPorto, 0.3f, 10,
              sizes({20000, 40000, 80000}), cfg);
  run_dataset(data::PaperDataset::k3DRoad, 0.4f, 10,
              sizes({20000, 40000, 80000}), cfg);
  run_dataset(data::PaperDataset::kNgsim, 0.0005f, 10,
              sizes({25000, 50000, 100000}), cfg);
  return 0;
}
