// §VI-B payoff: because RT-DBSCAN always runs the full traversal, it knows
// every point's exact neighbor count; re-running with a different minPts
// skips core identification entirely.  This bench measures a minPts sweep
// with and without the cache.
//
//   ./bench_rerun_cache [--scale F] [--reps N]
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/clusterer.hpp"
#include "core/rt_dbscan.hpp"
#include "data/generators.hpp"

int main(int argc, char** argv) {
  using namespace rtd;
  const Flags flags(argc, argv);
  const auto cfg = bench::BenchConfig::from_flags(flags);
  bench::print_header(
      "Sec VI-B: repeated runs with cached neighbor counts",
      "paper §VI-B (recording counts avoids re-running stage 1)", cfg);

  const auto n = cfg.scaled(
      static_cast<std::size_t>(flags.get_int("n", 60000)));
  const float eps = static_cast<float>(flags.get_double("eps", 0.3));
  const auto dataset = data::taxi_gps(n, 2023);
  const std::vector<std::uint32_t> sweep{5, 10, 20, 50, 100, 200};
  const Options session_opts = Options().with_backend(index::IndexKind::kBvhRt);

  // Cold: a fresh one-shot run per minPts (what an early-exit system that
  // discarded counts would have to do).
  double cold_total = 0.0;
  for (const auto mp : sweep) {
    cold_total += bench::time_median(cfg.reps, [&] {
      core::rt_dbscan(dataset.points, {eps, mp});
    });
  }

  // Warm: one RT session; phase 1 runs once.
  const double warm_total = bench::time_median(cfg.reps, [&] {
    Clusterer session(dataset.points, session_opts);
    for (const auto mp : sweep) (void)session.run(eps, mp);
  });

  Table table({"strategy", "total time", "speedup"});
  table.add_row({"one-shot per minPts (6 runs)", Table::seconds(cold_total),
                 "1.00x"});
  table.add_row({"cached counts (session)", Table::seconds(warm_total),
                 Table::speedup(cold_total / warm_total)});
  if (cfg.csv) {
    table.print_csv();
  } else {
    table.print();
  }

  // Per-run detail with the session.
  std::printf("\nper-run detail (session):\n");
  Clusterer session(dataset.points, session_opts);
  for (const auto mp : sweep) {
    Timer t;
    const ClusterResult& r = session.run(eps, mp);
    std::printf("  minPts=%-4u %8.2f ms  (phase1 %s)  clusters=%u\n", mp,
                t.millis(), r.stats.counts_reused ? "cached" : "computed",
                r.cluster_count);
  }
  return 0;
}
