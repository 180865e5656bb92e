// Geospatial clustering: the paper's motivating workload (road-network GPS
// points, the 3DRoad stand-in).  Runs RT-DBSCAN and FDBSCAN on the same
// data, verifies the clusterings are equivalent, compares cost, and writes
// the labeled points to CSV for plotting.
//
//   ./geospatial_clustering [--n 50000] [--eps 0.4] [--minpts 20]
//                           [--out clusters.csv]
#include <cstdio>

#include "common/flags.hpp"
#include "core/api.hpp"
#include "dbscan/fdbscan.hpp"
#include "data/generators.hpp"
#include "data/io.hpp"

int main(int argc, char** argv) {
  const rtd::Flags flags = rtd::Flags::parse_or_exit(argc, argv, {
      {"n", "points [50000]"},
      {"eps", "search radius [0.4]"},
      {"minpts", "minPts [20]"},
      {"out", "write labeled points to this CSV file"}});
  const auto n = static_cast<std::size_t>(flags.get_int("n", 50000));
  const float eps = static_cast<float>(flags.get_double("eps", 0.4));
  const auto min_pts =
      static_cast<std::uint32_t>(flags.get_int("minpts", 20));
  const std::string out = flags.get("out", "");

  const auto dataset = rtd::data::road_network(n);
  const rtd::dbscan::Params params{eps, min_pts};

  std::printf("Geospatial clustering (%zu road-network GPS points)\n",
              dataset.size());

  const auto rt = rtd::core::rt_dbscan(dataset.points, params);
  std::printf(
      "  RT-DBSCAN : %u clusters, %zu noise | bvh %.1f ms, "
      "phase1 %.1f ms, phase2 %.1f ms\n",
      rt.clustering.cluster_count, rt.clustering.noise_count(),
      rt.clustering.timings.index_build_seconds * 1e3,
      rt.clustering.timings.core_phase_seconds * 1e3,
      rt.clustering.timings.cluster_phase_seconds * 1e3);

  const auto fd = rtd::dbscan::fdbscan(dataset.points, params);
  std::printf(
      "  FDBSCAN   : %u clusters, %zu noise | bvh %.1f ms, "
      "phase1 %.1f ms, phase2 %.1f ms\n",
      fd.clustering.cluster_count, fd.clustering.noise_count(),
      fd.clustering.timings.index_build_seconds * 1e3,
      fd.clustering.timings.core_phase_seconds * 1e3,
      fd.clustering.timings.cluster_phase_seconds * 1e3);

  const auto eq = rtd::dbscan::check_equivalent(dataset.points, params,
                                                rt.clustering, fd.clustering);
  std::printf("  equivalence check: %s%s%s\n", eq ? "PASS" : "FAIL",
              eq ? "" : " — ", eq.reason.c_str());

  std::printf("  speedup over FDBSCAN: %.2fx\n",
              fd.clustering.timings.total_seconds /
                  rt.clustering.timings.total_seconds);

  if (!out.empty()) {
    rtd::data::save_labeled_csv(dataset, rt.clustering.labels, out);
    std::printf("  labeled points written to %s\n", out.c_str());
  }
  return eq ? 0 : 1;
}
