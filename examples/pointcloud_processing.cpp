// Point-cloud processing with the RT neighbor primitives — the distance
// algorithms the paper names as motivation (§VI-A: "computing normals, and
// filtering point cloud noise").
//
// Pipeline on a synthetic scanned terrain:
//   1. RT-kNN (the future-work extension: fixed-radius constraint removed)
//      finds each point's k nearest neighbors;
//   2. normals = smallest-eigenvalue eigenvector of the neighborhood
//      covariance; accuracy is scored against the analytic surface normal;
//   3. outliers are filtered by surface variation (Pauly et al.), scored
//      against the injected outlier set.
//
//   ./pointcloud_processing [--n 40000] [--k 12] [--outliers 400]
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/rt_knn.hpp"
#include "geom/eigen3.hpp"

namespace {

using rtd::geom::Vec3;

/// Terrain height field and its analytic normal.
float height(float x, float y) {
  return 0.6f * std::sin(0.8f * x) + 0.4f * std::cos(1.3f * y) +
         0.2f * std::sin(2.1f * x + 1.7f * y);
}

Vec3 analytic_normal(float x, float y) {
  const float dzdx = 0.6f * 0.8f * std::cos(0.8f * x) +
                     0.2f * 2.1f * std::cos(2.1f * x + 1.7f * y);
  const float dzdy = -0.4f * 1.3f * std::sin(1.3f * y) +
                     0.2f * 1.7f * std::cos(2.1f * x + 1.7f * y);
  return normalized(Vec3{-dzdx, -dzdy, 1.0f});
}

}  // namespace

int main(int argc, char** argv) {
  const rtd::Flags flags = rtd::Flags::parse_or_exit(argc, argv, {
      {"n", "points [40000]"},
      {"k", "neighbors per normal estimate [12]"},
      {"outliers", "injected outliers [400]"}});
  const auto n = static_cast<std::size_t>(flags.get_int("n", 40000));
  const auto k = static_cast<std::uint32_t>(flags.get_int("k", 12));
  const auto n_outliers =
      static_cast<std::size_t>(flags.get_int("outliers", 400));

  // Scanned terrain: surface samples with sensor noise, plus floating
  // outliers above the surface.
  rtd::Rng rng(2026);
  std::vector<Vec3> cloud;
  cloud.reserve(n + n_outliers);
  for (std::size_t i = 0; i < n; ++i) {
    const float x = rng.uniformf(0.0f, 20.0f);
    const float y = rng.uniformf(0.0f, 20.0f);
    cloud.push_back(Vec3{x, y,
                         height(x, y) +
                             static_cast<float>(rng.normal(0.0, 0.01))});
  }
  for (std::size_t i = 0; i < n_outliers; ++i) {
    const float x = rng.uniformf(0.0f, 20.0f);
    const float y = rng.uniformf(0.0f, 20.0f);
    cloud.push_back(Vec3{x, y, height(x, y) + rng.uniformf(0.5f, 3.0f)});
  }

  std::printf("Point-cloud processing: %zu surface + %zu outlier points\n",
              n, n_outliers);

  rtd::Timer timer;
  const auto knn = rtd::core::rt_knn(cloud, k);
  std::printf("  RT-kNN (k=%u): %.1f ms, %d radius rounds, %.1f isect/ray\n",
              k, timer.millis(), knn.rounds,
              knn.launches.isect_per_ray());

  // Normals + surface variation per point.
  timer.restart();
  std::vector<Vec3> normals(cloud.size());
  std::vector<float> variation(cloud.size());
  std::vector<Vec3> neighborhood(k + 1);
  double align_sum = 0.0;
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    neighborhood.clear();
    neighborhood.push_back(cloud[i]);
    for (const auto j : knn.neighbors_of(i)) {
      if (j != rtd::core::kNoSelf) neighborhood.push_back(cloud[j]);
    }
    const auto cov =
        rtd::geom::covariance3(neighborhood.begin(), neighborhood.end());
    normals[i] = rtd::geom::normal_from_covariance(cov);
    variation[i] = rtd::geom::surface_variation(cov);
    if (i < n) {
      align_sum += std::fabs(static_cast<double>(
          dot(normals[i], analytic_normal(cloud[i].x, cloud[i].y))));
    }
  }
  std::printf("  normals + variation: %.1f ms\n", timer.millis());
  std::printf("  mean |normal . analytic| on surface points: %.4f\n",
              align_sum / static_cast<double>(n));

  // Outlier filter: high surface variation = isolated / off-surface.
  const float threshold = 0.05f;
  std::size_t flagged = 0;
  std::size_t true_positives = 0;
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    if (variation[i] > threshold) {
      ++flagged;
      true_positives += (i >= n);
    }
  }
  std::printf(
      "  outlier filter (variation > %.2f): flagged %zu, precision %.2f, "
      "recall %.2f\n",
      static_cast<double>(threshold), flagged,
      flagged > 0 ? static_cast<double>(true_positives) /
                        static_cast<double>(flagged)
                  : 0.0,
      static_cast<double>(true_positives) /
          static_cast<double>(n_outliers));
  return 0;
}
