// Automatic ε selection via the k-distance graph (Ester et al.'s original
// recipe) on the session API: the same rtd::Clusterer computes the graph
// (through the RT-kNN extension), suggests ε at the knee, and clusters with
// it.  Demonstrates the end-to-end "no magic numbers" workflow.
//
//   ./eps_selection [--n 40000] [--k 4] [--backend auto]
#include <cstdio>

#include "common/cli.hpp"
#include "core/api.hpp"
#include "data/generators.hpp"

int main(int argc, char** argv) {
  const rtd::Flags flags = rtd::Flags::parse_or_exit(argc, argv, {
      {"n", "points [40000]"},
      {"k", "k of the k-distance graph [4]"},
      rtd::cli::kBackendFlag});
  const auto n = static_cast<std::size_t>(flags.get_int("n", 40000));
  const auto k = static_cast<std::uint32_t>(flags.get_int("k", 4));
  const auto backend = rtd::cli::backend_flag(flags);
  if (!backend) return 1;

  const auto dataset = rtd::data::taxi_gps(n);
  std::printf("eps selection over %zu taxi GPS points (k = %u)\n",
              dataset.size(), k);

  rtd::Clusterer session(dataset.points,
                         rtd::Options().with_backend(*backend));
  const auto kd = session.kdist(k);
  std::printf("  k-distance graph: max %.4f, knee at rank %zu -> "
              "suggested eps = %.4f\n",
              static_cast<double>(kd.sorted_kdist.front()), kd.knee_index,
              static_cast<double>(kd.suggested_eps));

  // Sparkline of the (downsampled) k-distance curve.
  std::printf("  curve: ");
  const char* levels = " .:-=+*#%@";
  const float top = kd.sorted_kdist.front();
  for (int s = 0; s < 60; ++s) {
    const std::size_t idx = static_cast<std::size_t>(s) *
                            (kd.sorted_kdist.size() - 1) / 59;
    const float v = kd.sorted_kdist[idx] / top;
    std::printf("%c", levels[static_cast<int>(v * 9.0f)]);
  }
  std::printf("\n");

  const rtd::ClusterResult& r = session.run(kd.suggested_eps, k + 1);
  std::printf("  DBSCAN(eps=%.4f, minPts=%u, backend %s): %u clusters, "
              "%zu noise (%.1f%%), %.1f ms\n",
              static_cast<double>(kd.suggested_eps), k + 1,
              rtd::index::to_string(r.stats.backend), r.cluster_count,
              r.noise_count(),
              100.0 * static_cast<double>(r.noise_count()) /
                  static_cast<double>(dataset.size()),
              r.seconds * 1e3);
  return 0;
}
