// §V-D runtime analysis: phase-level breakdown of RT-DBSCAN vs FDBSCAN.
// The paper's observation: BVH build dominates RT-DBSCAN at small n/eps
// (RT spent only 48% of total time on clustering operations vs FDBSCAN's
// 94%), while the clustering phases themselves are much faster.
//
// The second table sweeps every NeighborIndex backend through the unified
// engine (dbscan/engine.hpp) on the same dataset, so the index-build vs
// clustering trade is visible per backend, not just RT vs FDBSCAN.
//
//   ./bench_breakdown [--scale F] [--reps N]
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/api.hpp"
#include "core/rt_dbscan.hpp"
#include "dbscan/fdbscan.hpp"
#include "data/generators.hpp"

int main(int argc, char** argv) {
  using namespace rtd;
  const Flags flags(argc, argv);
  const auto cfg = bench::BenchConfig::from_flags(flags);
  bench::print_header("Sec V-D: runtime breakdown (BVH build vs clustering)",
                      "paper §V-D (3DIono 1M, eps=0.25, minPts=100)", cfg);

  const auto n = cfg.scaled(
      static_cast<std::size_t>(flags.get_int("n", 60000)));
  const float eps = static_cast<float>(flags.get_double("eps", 0.8));
  const auto min_pts =
      static_cast<std::uint32_t>(flags.get_int("minpts", 5));
  const auto dataset = data::ionosphere3d(n, 2023);
  const dbscan::Params params{eps, min_pts};

  // Median-of-reps runs; keep the last results for the modeled breakdown.
  core::RtDbscanResult rtr;
  dbscan::FdbscanResult fd;
  bench::time_median(cfg.reps, [&] {
    rtr = core::rt_dbscan(dataset.points, params);
  });
  bench::time_median(cfg.reps, [&] {
    fd = dbscan::fdbscan(dataset.points, params);
  });
  bench::verify(dataset.points, params, rtr.clustering, fd.clustering,
                "breakdown");

  const rt::CostModel model;
  const std::size_t total_n = dataset.size();
  const double rt_build = model.hw_build_seconds(total_n);
  const double rt_p1 = model.rt_phase_seconds(rtr.phase1.work);
  const double rt_p2 = model.rt_phase_seconds(rtr.phase2.work);
  const double fd_build = model.sw_build_seconds(total_n);
  const double fd_p1 = model.sw_phase_seconds(fd.phase1_work);
  const double fd_p2 = model.sw_phase_seconds(fd.phase2_work);

  Table table({"phase", "RT dev", "FD dev", "RT cpu", "FD cpu"});
  const auto& rt_t = rtr.clustering.timings;
  const auto& fd_t = fd.clustering.timings;
  table.add_row({"index (BVH) build", Table::seconds(rt_build),
                 Table::seconds(fd_build),
                 Table::seconds(rt_t.index_build_seconds),
                 Table::seconds(fd_t.index_build_seconds)});
  table.add_row({"phase 1: core identification", Table::seconds(rt_p1),
                 Table::seconds(fd_p1),
                 Table::seconds(rt_t.core_phase_seconds),
                 Table::seconds(fd_t.core_phase_seconds)});
  table.add_row({"phase 2: cluster formation", Table::seconds(rt_p2),
                 Table::seconds(fd_p2),
                 Table::seconds(rt_t.cluster_phase_seconds),
                 Table::seconds(fd_t.cluster_phase_seconds)});
  table.add_row({"total", Table::seconds(rt_build + rt_p1 + rt_p2),
                 Table::seconds(fd_build + fd_p1 + fd_p2),
                 Table::seconds(rt_t.total_seconds),
                 Table::seconds(fd_t.total_seconds)});
  if (cfg.csv) {
    table.print_csv();
  } else {
    table.print();
  }

  const double rt_frac = (rt_p1 + rt_p2) / (rt_build + rt_p1 + rt_p2);
  const double fd_frac = (fd_p1 + fd_p2) / (fd_build + fd_p1 + fd_p2);
  std::printf(
      "\nmodeled clustering fraction of total: RT-DBSCAN %.0f%%, FDBSCAN "
      "%.0f%% (paper: 48%% vs 94%%)\n",
      rt_frac * 100.0, fd_frac * 100.0);
  std::printf(
      "modeled clustering-only speedup (RT vs FD): %.2fx (paper: >9x)\n",
      (fd_p1 + fd_p2) / (rt_p1 + rt_p2));

  // -------------------------------------------------------------------------
  // NeighborIndex backend sweep: one cold session per backend (the session
  // API reports the build vs phase split itself via RunStats).
  // -------------------------------------------------------------------------
  std::printf("\n--- NeighborIndex backend sweep (rtd::Clusterer, n=%zu) "
              "---\n", total_n);
  Table sweep({"backend", "build", "phase 1", "phase 2", "total",
               "isect/query"});
  for (const index::IndexKind kind : index::kAllIndexKinds) {
    if (kind == index::IndexKind::kBruteForce && total_n > 20000) {
      std::printf("  (skipping brute force at n=%zu: O(n^2) per phase)\n",
                  total_n);
      continue;
    }
    ClusterResult run;
    bench::time_median(cfg.reps, [&] {
      // Options defaults (early_exit off) match the engine defaults the
      // pre-session code measured, keeping columns comparable across
      // BENCH_PR3/4/5 snapshots.
      Clusterer session = Clusterer::borrowing(
          dataset.points, Options().with_backend(kind));
      run = session.run(eps, min_pts);
    });
    bench::verify(dataset.points, params, rtr.clustering,
                  run.to_clustering(), index::to_string(kind));
    const auto& st = run.stats;
    const double isect_per_query =
        st.phase1.isect_per_ray() + st.phase2.isect_per_ray();
    // total = build + phases (the pre-session column semantics), NOT the
    // full run() wall time — run.seconds also covers the result epilogue
    // (label finalization, membership table), which is not under test.
    sweep.add_row({index::to_string(st.backend),
                   Table::seconds(st.timings.index_build_seconds),
                   Table::seconds(st.phase1.seconds),
                   Table::seconds(st.phase2.seconds),
                   Table::seconds(st.timings.index_build_seconds +
                                  st.phase1.seconds + st.phase2.seconds),
                   Table::num(isect_per_query, 1)});
  }
  if (cfg.csv) {
    sweep.print_csv();
  } else {
    sweep.print();
  }

  // -------------------------------------------------------------------------
  // Traversal width sweep: the two BVH-backed backends run the same engine
  // over both layouts.  nodes/query shows the pop reduction the SoA kernel
  // buys; isect/query shows the (bounded) candidate inflation of the
  // coarser wide leaves.
  // -------------------------------------------------------------------------
  std::printf("\n--- Binary vs wide BVH traversal "
              "(rtd::Clusterer, n=%zu) ---\n", total_n);
  Table widths({"backend", "width", "build", "phase 1", "phase 2", "total",
                "nodes/query", "isect/query"});
  for (const index::IndexKind kind :
       {index::IndexKind::kPointBvh, index::IndexKind::kBvhRt}) {
    for (const rt::TraversalWidth width :
         {rt::TraversalWidth::kBinary, rt::TraversalWidth::kWide}) {
      ClusterResult run;
      bench::time_median(cfg.reps, [&] {
        Clusterer session = Clusterer::borrowing(
            dataset.points, Options().with_backend(kind).with_width(width));
        run = session.run(eps, min_pts);
      });
      bench::verify(dataset.points, params, rtr.clustering,
                    run.to_clustering(), rt::to_string(width));
      const auto& st = run.stats;
      widths.add_row(
          {index::to_string(kind), rt::to_string(width),
           Table::seconds(st.timings.index_build_seconds),
           Table::seconds(st.phase1.seconds),
           Table::seconds(st.phase2.seconds),
           Table::seconds(st.timings.index_build_seconds +
                          st.phase1.seconds + st.phase2.seconds),
           Table::num(st.phase1.nodes_per_ray() +
                          st.phase2.nodes_per_ray(), 1),
           Table::num(st.phase1.isect_per_ray() +
                          st.phase2.isect_per_ray(), 1)});
    }
  }
  if (cfg.csv) {
    widths.print_csv();
  } else {
    widths.print();
  }
  return 0;
}
