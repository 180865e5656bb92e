// Installed-package consumer: exercises the session API end to end through
// the exported target only.  Exits non-zero on any contract violation so
// the CI job fails loudly.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/api.hpp"

int main() {
  // A tiny hand-checked dataset: two 4-point squares and one far outlier
  // (eps=1.5, minPts=3 -> two clusters, one noise point).
  std::vector<rtd::geom::Vec3> points = {
      {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0},
      {10, 10, 0}, {11, 10, 0}, {10, 11, 0}, {11, 11, 0},
      {100, 100, 0},
  };

  rtd::Clusterer session(points);
  // Copy: run() returns a view into session storage that the sweep()
  // below overwrites.
  const rtd::ClusterResult first = session.run(1.5f, 3);
  if (first.cluster_count != 2 || first.noise_count() != 1) {
    std::fprintf(stderr, "FAIL: expected 2 clusters + 1 noise, got %u + %zu\n",
                 first.cluster_count, first.noise_count());
    return 1;
  }
  if (first.members_of(first.labels[0]).size() != 4 ||
      first.noise()[0] != 8) {
    std::fprintf(stderr, "FAIL: membership views inconsistent\n");
    return 1;
  }

  // Sweep + refit/rebuild bookkeeping through the installed package.
  const std::vector<float> ladder = {1.2f, 1.5f, 2.0f};
  const auto curve = session.sweep(ladder, 3);
  if (curve.size() != ladder.size()) {
    std::fprintf(stderr, "FAIL: sweep size\n");
    return 1;
  }

  // Streaming through the installed package: one window step expires the
  // oldest point and appends two, and the maintained member lists must
  // still match the maintained labels (order within a group is
  // unspecified, so each group is checked as a set).
  (void)session.run(1.5f, 3);
  const std::vector<rtd::geom::Vec3> arrivals = {{10.5f, 10.5f, 0},
                                                 {50, 50, 0}};
  (void)session.advance(arrivals, 1);
  const rtd::ClusterResult& live = session.result();
  if (session.is_live(0) || live.cluster_count != 2 ||
      live.noise().size() != 3) {
    std::fprintf(stderr,
                 "FAIL: after advance expected 2 clusters + 3 noise slots, "
                 "got %u + %zu\n",
                 live.cluster_count, live.noise().size());
    return 1;
  }
  std::size_t covered = 0;
  for (std::int32_t c = rtd::kNoise;
       c < static_cast<std::int32_t>(live.cluster_count); ++c) {
    const auto group = c == rtd::kNoise ? live.noise() : live.members_of(c);
    for (const std::uint32_t m : group) {
      if (m >= live.size() || live.labels[m] != c) {
        std::fprintf(stderr, "FAIL: slot %u sits in group %d\n", m, c);
        return 1;
      }
    }
    covered += group.size();
  }
  if (covered != live.size()) {
    std::fprintf(stderr, "FAIL: member lists cover %zu of %zu slots\n",
                 covered, live.size());
    return 1;
  }

  // The legacy one-shot wrapper still works.
  const rtd::ClusterResult one_shot = rtd::cluster(points, 1.5f, 3);
  if (one_shot.cluster_count != first.cluster_count) {
    std::fprintf(stderr, "FAIL: wrapper disagrees with session\n");
    return 1;
  }

  std::printf("consumer OK: %u clusters, backend %s\n", first.cluster_count,
              rtd::index::to_string(first.stats.backend));
  return 0;
}
