// Parallel-efficiency characterization of the simulator: RT-DBSCAN and
// FDBSCAN wall time vs worker-thread count.  Not a paper figure — it
// validates that measured CPU comparisons elsewhere are not artifacts of
// poor scaling in one implementation.
//
//   ./bench_thread_scaling [--scale F] [--reps N]
#include <cstdio>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "core/rt_dbscan.hpp"
#include "dbscan/fdbscan.hpp"
#include "data/generators.hpp"

int main(int argc, char** argv) {
  using namespace rtd;
  const Flags flags = bench::parse_flags(argc, argv, {
      {"n", "points [40000]"}});
  const auto cfg = bench::BenchConfig::from_flags(flags);
  bench::print_header("Thread scaling of the simulator",
                      "infrastructure validation (not a paper figure)", cfg);

  const auto n = cfg.scaled(
      static_cast<std::size_t>(flags.get_int("n", 40000)));
  const auto dataset = data::taxi_gps(n, 2023);
  const dbscan::Params params{0.3f, 25};
  const int max_threads = hardware_threads();

  Table table({"threads", "RT cpu", "FDBSCAN cpu", "RT speedup vs 1T",
               "RT efficiency"});
  double rt_single = 0.0;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    core::RtDbscanOptions rt_opts;
    rt_opts.threads = threads;
    dbscan::FdbscanOptions fd_opts;
    fd_opts.threads = threads;

    const double rt_cpu = bench::time_median(cfg.reps, [&] {
      core::rt_dbscan(dataset.points, params, rt_opts);
    });
    const double fd_cpu = bench::time_median(cfg.reps, [&] {
      dbscan::fdbscan(dataset.points, params, fd_opts);
    });
    if (threads == 1) rt_single = rt_cpu;

    const double speedup = rt_single / rt_cpu;
    table.add_row({Table::integer(threads), Table::seconds(rt_cpu),
                   Table::seconds(fd_cpu), Table::speedup(speedup),
                   Table::num(speedup / threads * 100.0, 0) + "%"});
  }
  if (cfg.csv) {
    table.print_csv();
  } else {
    table.print();
  }
  return 0;
}
