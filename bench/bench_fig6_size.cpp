// Figure 6 + Table I: RT-DBSCAN vs FDBSCAN on varying dataset size, with
// fixed (eps, minPts) per dataset.  Table I's raw-execution-time format is
// printed for the Porto stand-in.
//
//   ./bench_fig6_size [--scale F] [--reps N]
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/rt_dbscan.hpp"
#include "dbscan/fdbscan.hpp"
#include "data/generators.hpp"

namespace {

using namespace rtd;

void run_dataset(data::PaperDataset which, const std::vector<std::size_t>& ns,
                 float eps, std::uint32_t min_pts,
                 const bench::BenchConfig& cfg, bool table1_format) {
  std::printf("-- %s (eps=%.3f, minPts=%u)%s --\n", data::to_string(which),
              static_cast<double>(eps), min_pts,
              table1_format ? " [Table I format]" : "");
  // Generate once at the largest size; take prefixes, as the paper does
  // ("we choose the first n points for clustering").
  auto full = data::make_paper_dataset(which, ns.back(), 2023);

  Table table({"n", "FD dev(s)", "RT dev(s)", "speedup", "FD cpu", "RT cpu",
               "clusters"});
  for (const std::size_t n : ns) {
    std::span<const geom::Vec3> points(full.points.data(), n);
    const dbscan::Params params{eps, min_pts};

    dbscan::FdbscanResult fd;
    const double fd_cpu = bench::time_median(cfg.reps, [&] {
      fd = dbscan::fdbscan(points, params);
    });
    core::RtDbscanResult rt;
    const double rt_cpu = bench::time_median(cfg.reps, [&] {
      rt = core::rt_dbscan(points, params);
    });
    bench::verify(points, params, fd.clustering, rt.clustering,
                  "fdbscan vs rt-dbscan");

    const double fd_dev = bench::modeled_fd_seconds(fd, n);
    const double rt_dev = bench::modeled_rt_seconds(rt, n);
    table.add_row({Table::integer(static_cast<std::int64_t>(n)),
                   Table::num(fd_dev, 5), Table::num(rt_dev, 5),
                   Table::speedup(fd_dev / rt_dev), Table::seconds(fd_cpu),
                   Table::seconds(rt_cpu),
                   Table::integer(rt.clustering.cluster_count)});
  }
  if (cfg.csv) {
    table.print_csv();
  } else {
    table.print();
  }
  std::printf(
      "dev(s) = modeled device time (Table I reports this raw-time format); "
      "cpu = measured simulator wall-clock\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = bench::parse_flags(argc, argv);
  const auto cfg = bench::BenchConfig::from_flags(flags);
  bench::print_header(
      "Fig 6 + Table I: RT-DBSCAN vs FDBSCAN on varying dataset size",
      "paper Fig 6a/6b/6c, Table I (500K-8M pts)", cfg);

  const auto sizes = [&](std::initializer_list<std::size_t> base) {
    std::vector<std::size_t> out;
    for (const auto n : base) out.push_back(cfg.scaled(n));
    return out;
  };

  // Paper: 3DRoad (0.05, 100) up to 400K; Porto (0.5, 1000); 3DIono (0.5,
  // 10).  Parameters rescaled to our synthetic coordinate ranges.
  run_dataset(data::PaperDataset::k3DRoad,
              sizes({10000, 20000, 40000, 80000}), 0.4f, 25, cfg, false);
  run_dataset(data::PaperDataset::kPorto,
              sizes({10000, 20000, 40000, 80000, 160000}), 0.3f, 50, cfg,
              true);
  run_dataset(data::PaperDataset::k3DIono,
              sizes({10000, 20000, 40000, 80000}), 2.0f, 10, cfg, false);
  return 0;
}
