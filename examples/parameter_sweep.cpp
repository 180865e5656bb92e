// Parameter sweep: the §VI-B workflow the paper optimizes for, on the
// session API.  A user explores minPts and ε over a fixed dataset;
// rtd::Clusterer amortizes the neighbor index across every run:
//   * minPts changes reuse the cached neighbor counts (phase 1 skipped);
//   * ε changes REFIT the index in place on the BVH-backed backends
//     (rebuild only where the backend requires it, e.g. grid re-binning).
//
//   ./parameter_sweep [--n 50000] [--eps 0.3] [--backend auto]
#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "core/api.hpp"
#include "data/generators.hpp"

int main(int argc, char** argv) {
  const rtd::Flags flags = rtd::Flags::parse_or_exit(argc, argv, {
      {"n", "points [50000]"},
      {"eps", "base search radius [0.3]"},
      rtd::cli::kBackendFlag});
  const auto n = static_cast<std::size_t>(flags.get_int("n", 50000));
  const float eps = static_cast<float>(flags.get_double("eps", 0.3));
  const auto backend = rtd::cli::backend_flag(flags);
  if (!backend) return 1;

  const auto dataset = rtd::data::taxi_gps(n);
  rtd::Clusterer session(dataset.points,
                         rtd::Options().with_backend(*backend));

  std::printf("minPts sweep over %zu points, eps=%.3f\n", dataset.size(),
              static_cast<double>(eps));
  std::printf("%-8s %-10s %-10s %-12s %-12s %s\n", "minPts", "clusters",
              "noise", "run (ms)", "phase1 (ms)", "phase 1");
  for (const std::uint32_t min_pts : {5u, 10u, 20u, 50u, 100u, 200u}) {
    const rtd::ClusterResult& r = session.run(eps, min_pts);
    std::printf("%-8u %-10u %-10zu %-12.2f %-12.2f %s\n", min_pts,
                r.cluster_count, r.noise_count(), r.seconds * 1e3,
                r.stats.phase1.seconds * 1e3,
                r.stats.counts_reused ? "cached" : "computed");
  }
  std::printf(
      "\nphase1 cost is paid once: later rows reuse cached neighbor "
      "counts (the paper's §VI-B full-traversal payoff).\n");

  // ε sweep: the session builds the index once at the largest ε and
  // clusters every value from one counting and one cluster-formation
  // launch there — entry 0 reports the index step, the rest reuse it.
  std::vector<float> eps_values;
  for (const float scale : {0.6f, 0.8f, 1.0f, 1.2f, 1.5f}) {
    eps_values.push_back(eps * scale);
  }
  const auto curve = session.sweep(eps_values, 10);
  std::printf("\neps sweep (minPts=10, backend %s)\n",
              rtd::index::to_string(session.backend()));
  std::printf("%-10s %-10s %-10s %-12s %s\n", "eps", "clusters", "noise",
              "run (ms)", "index step");
  for (const rtd::ClusterResult& r : curve) {
    std::printf("%-10.3f %-10u %-10zu %-12.2f %s\n",
                static_cast<double>(r.eps), r.cluster_count, r.noise_count(),
                r.seconds * 1e3,
                r.stats.index_rebuilt    ? "rebuild"
                : r.stats.index_refitted ? "refit"
                                         : "reused");
  }
  return 0;
}
