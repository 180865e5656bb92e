// FDBSCAN-DenseBox vs FDBSCAN vs RT-DBSCAN on high-density vs spread data —
// testing the paper's §V-B claim that DenseBox only helps "in datasets with
// very high density regions" and otherwise "performance remains the same or
// is worse".
//
//   ./bench_densebox [--scale F] [--reps N]
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/rt_dbscan.hpp"
#include "dbscan/fdbscan.hpp"
#include "dbscan/fdbscan_densebox.hpp"
#include "data/generators.hpp"

namespace {

using namespace rtd;

void run_case(const char* label, const data::Dataset& dataset,
              const dbscan::Params& params, const bench::BenchConfig& cfg,
              Table& table) {
  dbscan::FdbscanResult fd;
  const double fd_cpu = bench::time_median(cfg.reps, [&] {
    fd = dbscan::fdbscan(dataset.points, params);
  });
  dbscan::DenseboxResult db;
  const double db_cpu = bench::time_median(cfg.reps, [&] {
    db = dbscan::fdbscan_densebox(dataset.points, params);
  });
  core::RtDbscanResult rt;
  bench::time_median(cfg.reps, [&] {
    rt = core::rt_dbscan(dataset.points, params);
  });
  bench::verify(dataset.points, params, fd.clustering, db.clustering,
                "fd vs densebox");
  bench::verify(dataset.points, params, fd.clustering, rt.clustering,
                "fd vs rt");

  // Modeled device time: DenseBox runs the same software traversal machinery
  // as FDBSCAN, just less of it.
  const rt::CostModel model;
  const double fd_dev = bench::modeled_fd_seconds(fd, dataset.size());
  const double db_dev = model.sw_build_seconds(dataset.size()) +
                        model.sw_phase_seconds(db.phase1_work) +
                        model.sw_phase_seconds(db.phase2_work);
  const double rt_dev = bench::modeled_rt_seconds(rt, dataset.size());

  char dense[32];
  std::snprintf(dense, sizeof dense, "%.0f%%",
                100.0 * static_cast<double>(db.dense_points) /
                    static_cast<double>(dataset.size()));
  table.add_row({label, dense, Table::num(fd_dev * 1e3, 2),
                 Table::num(db_dev * 1e3, 2), Table::num(rt_dev * 1e3, 2),
                 Table::speedup(fd_dev / db_dev),
                 Table::speedup(db_dev / rt_dev), Table::seconds(fd_cpu),
                 Table::seconds(db_cpu)});
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = bench::parse_flags(argc, argv, {
      {"n", "points [60000]"}});
  const auto cfg = bench::BenchConfig::from_flags(flags);
  bench::print_header(
      "FDBSCAN-DenseBox vs FDBSCAN vs RT-DBSCAN",
      "paper §V-B discussion (DenseBox helps only in dense regions)", cfg);

  const auto n = cfg.scaled(
      static_cast<std::size_t>(flags.get_int("n", 60000)));

  Table table({"dataset", "dense pts", "FD dev(ms)", "DenseBox dev(ms)",
               "RT dev(ms)", "DB vs FD", "RT vs DB", "FD cpu", "DB cpu"});

  // Very high density regions: tight blobs.
  run_case("dense blobs", data::gaussian_blobs(n, 6, 0.15f, 50.0f, 2, 2023),
           {0.2f, 20}, cfg, table);
  // NGSIM-like duplication-heavy trajectories.
  run_case("NGSIM-like", data::vehicle_trajectories(n, 2023), {0.5f, 40},
           cfg, table);
  // No dense regions: spread road network.
  run_case("3DRoad-like", data::road_network(n, 2023), {0.4f, 25}, cfg,
           table);

  if (cfg.csv) {
    table.print_csv();
  } else {
    table.print();
  }
  std::printf(
      "\nexpected shape: DB vs FD >> 1x on dense data, ~1x (or below) on "
      "spread data; RT ahead of both except where dense boxes prove cores "
      "for free.\n");
  return 0;
}
