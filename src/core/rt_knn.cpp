#include "core/rt_knn.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <optional>
#include <stdexcept>

#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "dbscan/core.hpp"
#include "geom/aabb.hpp"
#include "index/bvh_rt_index.hpp"
#include "rt/parallel_launch.hpp"

namespace rtd::core {

namespace {

using geom::Vec3;
using index::kNoSelf;

/// Per-query bounded max-heap of the k best (distance^2, index) pairs.
/// Flat storage across all queries to keep the launch allocation-free.
class KBestHeaps {
 public:
  KBestHeaps(std::size_t n, std::uint32_t k)
      : k_(k),
        dist2_(n * k, std::numeric_limits<float>::infinity()),
        index_(n * k, kNoSelf),
        count_(n, 0) {}

  /// Offer candidate j at squared distance d2 to query i.
  void offer(std::size_t i, std::uint32_t j, float d2) {
    float* d = dist2_.data() + i * k_;
    std::uint32_t* idx = index_.data() + i * k_;
    std::uint32_t& cnt = count_[i];
    if (cnt < k_) {
      d[cnt] = d2;
      idx[cnt] = j;
      ++cnt;
      if (cnt == k_) {
        // Heapify once full (max-heap on distance).
        for (std::uint32_t h = k_ / 2; h-- > 0;) sift_down(d, idx, h);
      }
      return;
    }
    if (d2 >= d[0]) return;
    d[0] = d2;
    idx[0] = j;
    sift_down(d, idx, 0);
  }

  /// Worst (k-th) squared distance currently held, or +inf if not full.
  [[nodiscard]] float worst(std::size_t i) const {
    if (count_[i] < k_) return std::numeric_limits<float>::infinity();
    return dist2_[i * k_];
  }

  [[nodiscard]] bool full(std::size_t i) const { return count_[i] == k_; }

  /// Extract ascending (index, distance) rows into the result arrays.
  void extract(std::size_t i, std::uint32_t* out_idx, float* out_dist) const {
    const float* d = dist2_.data() + i * k_;
    const std::uint32_t* idx = index_.data() + i * k_;
    const std::uint32_t cnt = count_[i];
    std::vector<std::pair<float, std::uint32_t>> rows(cnt);
    for (std::uint32_t h = 0; h < cnt; ++h) rows[h] = {d[h], idx[h]};
    std::sort(rows.begin(), rows.end());
    for (std::uint32_t h = 0; h < k_; ++h) {
      if (h < cnt) {
        out_idx[h] = rows[h].second;
        out_dist[h] = std::sqrt(rows[h].first);
      } else {
        out_idx[h] = kNoSelf;
        out_dist[h] = std::numeric_limits<float>::infinity();
      }
    }
  }

  /// Drop entries and restart a query (unconverged queries keep their heap
  /// across rounds — a bigger radius only adds candidates, and duplicates
  /// must not be re-offered, so rounds reset and refill instead).
  void reset(std::size_t i) {
    count_[i] = 0;
    std::fill_n(dist2_.data() + i * k_, k_,
                std::numeric_limits<float>::infinity());
    std::fill_n(index_.data() + i * k_, k_, kNoSelf);
  }

 private:
  void sift_down(float* d, std::uint32_t* idx, std::uint32_t hole) const {
    while (true) {
      const std::uint32_t left = 2 * hole + 1;
      if (left >= k_) return;
      std::uint32_t largest = left;
      const std::uint32_t right = left + 1;
      if (right < k_ && d[right] > d[left]) largest = right;
      if (d[largest] <= d[hole]) return;
      std::swap(d[largest], d[hole]);
      std::swap(idx[largest], idx[hole]);
      hole = largest;
    }
  }

  std::uint32_t k_;
  std::vector<float> dist2_;
  std::vector<std::uint32_t> index_;
  std::vector<std::uint32_t> count_;
};

float initial_radius_from_density(const geom::Aabb& bounds, std::size_t size,
                                  std::uint32_t k) {
  const Vec3 e = bounds.extent();
  const auto n = static_cast<float>(size);
  const bool flat = e.z <= 0.0f;
  if (flat) {
    const float area = std::max(e.x * e.y, 1e-12f);
    // Disk of radius r expected to hold k of n points: pi r^2 n / A = k.
    return std::sqrt(static_cast<float>(k + 1) * area /
                     (std::numbers::pi_v<float> * n));
  }
  const float volume = std::max(e.x * e.y * e.z, 1e-12f);
  return std::cbrt(3.0f * static_cast<float>(k + 1) * volume /
                   (4.0f * std::numbers::pi_v<float> * n));
}

}  // namespace

RtKnnResult rt_knn(std::span<const Vec3> points, std::uint32_t k,
                   const RtKnnOptions& options) {
  if (k == 0) throw std::invalid_argument("rt_knn: k must be >= 1");
  // Accepting-condition tests, so NaN (which fails every comparison) is
  // rejected too.
  if (!(options.growth > 1.0f) || !std::isfinite(options.growth)) {
    throw std::invalid_argument("rt_knn: growth must be finite and > 1");
  }
  if (options.max_rounds < 1) {
    throw std::invalid_argument("rt_knn: max_rounds must be >= 1");
  }
  if (!(options.initial_radius >= 0.0f) ||
      !std::isfinite(options.initial_radius)) {
    throw std::invalid_argument(
        "rt_knn: initial_radius must be finite and >= 0 (0 = from density)");
  }
  dbscan::require_finite(points);

  const std::size_t n = points.size();
  RtKnnResult result;
  result.k = k;
  result.indices.assign(n * k, kNoSelf);
  result.distances.assign(n * k, std::numeric_limits<float>::infinity());
  if (n == 0) return result;

  KBestHeaps heaps(n, k);

  // Tiny datasets (every other point is a neighbor) cannot converge by
  // radius; answer them directly.
  if (n - 1 <= k) {
    parallel_for(n, options.threads, [&](std::size_t i) {
      for (std::uint32_t j = 0; j < n; ++j) {
        if (j != i) {
          heaps.offer(i, j, geom::distance_squared(points[i], points[j]));
        }
      }
      heaps.extract(i, result.indices.data() + i * k,
                    result.distances.data() + i * k);
    });
    return result;
  }

  geom::Aabb bounds;
  for (const auto& p : points) bounds.grow(p);
  float radius = options.initial_radius > 0.0f
                     ? options.initial_radius
                     : initial_radius_from_density(bounds, n, k);
  // A radius of twice the bounding diagonal reaches every point from every
  // query, so the growth stops there (and never overflows to +inf).
  const float reach = 2.0f * geom::length(bounds.extent());

  // Active (unconverged) query ids; shrinks between rounds.
  std::vector<std::uint32_t> active(n);
  for (std::uint32_t i = 0; i < n; ++i) active[i] = i;

  // One sphere scene per call: built in round 1, refit to the grown radius
  // after that.  A declined refit (an armed index.refit failpoint) builds
  // a fresh scene instead.
  std::optional<index::BvhRtIndex> scene;
  while (!active.empty() && result.rounds < options.max_rounds) {
    ++result.rounds;
    Timer build_timer;
    if (!scene || !scene->try_set_eps(radius)) {
      scene.emplace(points, radius, options.threads);
    }
    result.accel_build_seconds += build_timer.seconds();

    const float r2 = radius * radius;
    const rt::LaunchStats launch = rt::parallel_launch(
        active.size(), options.threads,
        [&](rt::TraversalStats& st, std::size_t a) {
          const std::uint32_t i = active[a];
          heaps.reset(i);
          scene->query_sphere(
              points[i], radius, i,
              [&](std::uint32_t j) {
                heaps.offer(i, j,
                            geom::distance_squared(points[i], points[j]));
              },
              st);
        });
    result.launches.seconds += launch.seconds;
    result.launches.work += launch.work;

    // Partition converged queries out.
    std::vector<std::uint32_t> still_active;
    still_active.reserve(active.size() / 2);
    for (const std::uint32_t i : active) {
      const bool enough = heaps.full(i) && heaps.worst(i) <= r2;
      if (enough) {
        heaps.extract(i, result.indices.data() + std::size_t{i} * k,
                      result.distances.data() + std::size_t{i} * k);
      } else {
        still_active.push_back(i);
      }
    }
    active.swap(still_active);
    radius = std::min(radius * options.growth, std::max(radius, reach));
  }

  // Round cap hit: emit best-effort results for the stragglers.
  for (const std::uint32_t i : active) {
    heaps.extract(i, result.indices.data() + std::size_t{i} * k,
                  result.distances.data() + std::size_t{i} * k);
  }
  return result;
}

}  // namespace rtd::core
