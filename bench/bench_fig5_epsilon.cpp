// Figure 5: speedup of RT-DBSCAN over FDBSCAN on varying search radius ε,
// for the 3DRoad, Porto and 3DIono dataset stand-ins (paper: n=1M,
// minPts=100; default here n=60K scaled, minPts scaled accordingly).
//
//   ./bench_fig5_epsilon [--scale F] [--reps N] [--n N] [--minpts M]
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/rt_dbscan.hpp"
#include "dbscan/fdbscan.hpp"
#include "data/generators.hpp"

namespace {

using namespace rtd;
using bench::BenchConfig;

struct DatasetCase {
  data::PaperDataset which;
  std::vector<float> eps_values;
};

void run_dataset(const DatasetCase& dcase, std::size_t n,
                 std::uint32_t min_pts, const BenchConfig& cfg) {
  const auto dataset = data::make_paper_dataset(dcase.which, n, 2023);
  std::printf("-- %s (n=%zu, minPts=%u) --\n", data::to_string(dcase.which),
              dataset.size(), min_pts);

  Table table({"eps", "FD dev(ms)", "RT dev(ms)", "speedup", "FD cpu",
               "RT cpu", "clusters"});
  for (const float eps : dcase.eps_values) {
    const dbscan::Params params{eps, min_pts};

    dbscan::FdbscanResult fd;
    const double fd_cpu = bench::time_median(cfg.reps, [&] {
      fd = dbscan::fdbscan(dataset.points, params);
    });
    core::RtDbscanResult rt;
    const double rt_cpu = bench::time_median(cfg.reps, [&] {
      rt = core::rt_dbscan(dataset.points, params);
    });
    bench::verify(dataset.points, params, fd.clustering, rt.clustering,
                  "fdbscan vs rt-dbscan");

    const double fd_dev = bench::modeled_fd_seconds(fd, dataset.size());
    const double rt_dev = bench::modeled_rt_seconds(rt, dataset.size());
    table.add_row({Table::num(eps, 4), Table::num(fd_dev * 1e3, 2),
                   Table::num(rt_dev * 1e3, 2),
                   Table::speedup(fd_dev / rt_dev),
                   Table::seconds(fd_cpu), Table::seconds(rt_cpu),
                   Table::integer(rt.clustering.cluster_count)});
  }
  if (cfg.csv) {
    table.print_csv();
  } else {
    table.print();
  }
  std::printf(
      "dev(ms) = modeled RTX-class device time from work counters; speedup "
      "column compares modeled times (paper's Fig 5 axis)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = bench::parse_flags(argc, argv, {
      {"n", "points [60000]"},
      {"minpts", "minPts [25]"}});
  const BenchConfig cfg = BenchConfig::from_flags(flags);
  bench::print_header("Fig 5: speedup over FDBSCAN vs search radius",
                      "paper Fig 5a/5b/5c (1M pts, minPts=100)", cfg);

  const auto n = cfg.scaled(
      static_cast<std::size_t>(flags.get_int("n", 60000)));
  const auto min_pts =
      static_cast<std::uint32_t>(flags.get_int("minpts", 25));

  run_dataset({data::PaperDataset::k3DRoad, {0.2f, 0.4f, 0.6f, 0.9f, 1.2f}},
              n, min_pts, cfg);
  run_dataset({data::PaperDataset::kPorto, {0.1f, 0.2f, 0.35f, 0.5f, 0.7f}},
              n, min_pts, cfg);
  run_dataset({data::PaperDataset::k3DIono, {1.0f, 1.5f, 2.0f, 3.0f, 4.0f}},
              n, min_pts, cfg);
  return 0;
}
