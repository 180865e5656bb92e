// Quickstart: cluster a synthetic 2-D dataset with the session API, with a
// runtime-selectable neighbor backend.
//
//   ./quickstart [--n 20000] [--eps 0.4] [--minpts 10] [--backend auto]
//                [--trace out.json]
//
// --backend is any rtd::index::IndexKind name (auto, bvhrt, triangles,
// pointbvh, grid, densebox, brute); --trace drains the run's telemetry spans
// into a Chrome trace-event JSON file.
// Demonstrates rtd::Clusterer — the session is built once, the first run()
// pays the index build, and the second run() at a new min_pts reuses the
// cached neighbor counts (phase 1 skipped).  This file is the README's
// "Quick use" snippet, kept compiling.
#include <cstdio>

#include "common/cli.hpp"
#include "core/api.hpp"
#include "data/generators.hpp"

int main(int argc, char** argv) {
  const rtd::Flags flags = rtd::Flags::parse_or_exit(argc, argv, {
      rtd::cli::kTraceFlag,
      {"n", "points [20000]"},
      {"eps", "search radius [0.4]"},
      {"minpts", "minPts [10]"},
      rtd::cli::kBackendFlag});
  // Arms telemetry when --trace is given; writes the trace on scope exit.
  const rtd::cli::TraceSink trace(flags);
  const auto n = static_cast<std::size_t>(flags.get_int("n", 20000));
  const float eps = static_cast<float>(flags.get_double("eps", 0.4));
  const auto min_pts =
      static_cast<std::uint32_t>(flags.get_int("minpts", 10));
  const auto backend = rtd::cli::backend_flag(flags);
  if (!backend) return 1;

  // Five Gaussian blobs plus background noise in a 40x40 box.
  const rtd::data::Dataset dataset =
      rtd::data::gaussian_blobs(n, /*k=*/5, /*stddev=*/0.8f,
                                /*extent=*/40.0f);

  // A session owns the dataset and a prebuilt neighbor index; run() is the
  // entire pipeline (per-point ε-queries + union-find clustering).
  rtd::Clusterer session(dataset.points,
                         rtd::Options().with_backend(*backend));
  const rtd::ClusterResult& result = session.run(eps, min_pts);

  std::printf("rtd::Clusterer quickstart\n");
  std::printf("  points      : %zu\n", dataset.size());
  std::printf("  eps / minPts: %.3f / %u\n", static_cast<double>(eps),
              min_pts);
  std::printf("  backend     : %s (requested %s)\n",
              rtd::index::to_string(result.stats.backend),
              rtd::index::to_string(*backend));
  std::printf("  clusters    : %u\n", result.cluster_count);
  std::printf("  noise points: %zu (%.1f%%)\n", result.noise_count(),
              100.0 * static_cast<double>(result.noise_count()) /
                  static_cast<double>(dataset.size()));
  std::printf("  wall time   : %.3f ms (index build %.3f ms)\n",
              result.seconds * 1e3,
              result.stats.timings.index_build_seconds * 1e3);

  // Per-cluster sizes via the membership views (top 5).
  std::printf("  cluster sizes:");
  for (std::uint32_t c = 0; c < result.cluster_count && c < 5; ++c) {
    std::printf(" %zu", result.members_of(static_cast<std::int32_t>(c)).size());
  }
  std::printf("%s\n", result.cluster_count > 5 ? " ..." : "");

  // Re-run at a different minPts: the session reuses the index AND the
  // cached neighbor counts, paying only cluster formation (§VI-B).
  const rtd::ClusterResult& rerun = session.run(eps, min_pts * 2);
  std::printf("  rerun minPts=%u: %u clusters in %.3f ms (%s)\n", min_pts * 2,
              rerun.cluster_count, rerun.seconds * 1e3,
              rerun.stats.counts_reused ? "cached counts, phase 1 skipped"
                                        : "counts recomputed");
  return 0;
}
