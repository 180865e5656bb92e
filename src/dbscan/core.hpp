// Shared DBSCAN definitions: parameters, point classes, clustering results.
//
// All implementations in this repository (sequential reference, FDBSCAN
// with/without early exit, FDBSCAN-DenseBox, G-DBSCAN, CUDA-DClust+,
// RT-DBSCAN, and the unified NeighborIndex engine in dbscan/engine.hpp)
// consume and produce these types, which is what makes them
// interchangeable in tests, examples and benchmarks.  Params::index
// additionally selects the neighbor-query backend (see index/index_kind.hpp
// and docs/ARCHITECTURE.md).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "geom/vec3.hpp"
#include "index/index_kind.hpp"

namespace rtd::dbscan {

/// Reject datasets with NaN/inf coordinates (fail fast — a single NaN makes
/// every distance comparison false and silently turns the dataset into
/// all-noise).  Called by every clustering entry point.
inline void require_finite(std::span<const geom::Vec3> points) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!geom::is_finite(points[i])) {
      throw std::invalid_argument(
          "dbscan: non-finite coordinate at point index " +
          std::to_string(i));
    }
  }
}

/// DBSCAN inputs (§II-C): ε is the neighborhood radius, minPts the neighbor
/// count (including the point itself, the convention of the original paper's
/// |N_eps(p)| >= minPts with p in N_eps(p)) required for a core point.
struct Params {
  /// Neighborhood radius ε (inclusive: distance <= eps is a neighbor).
  float eps = 1.0f;
  /// Core-point threshold |N_eps(p)| >= minPts, with p in N_eps(p).
  std::uint32_t min_pts = 5;
  /// Which neighbor-index backend answers the ε-queries.  kAuto resolves to
  /// the consuming algorithm's traditional substrate (grid for the
  /// sequential reference, brute force for G-DBSCAN, point-BVH for
  /// FDBSCAN) or, for the generic engine, to kBvhRt (index::make_index).
  /// Consistency is enforced: entry points that receive a pre-built index
  /// (dbscan::cluster_with_index) reject a concrete value that contradicts
  /// it, and core::rt_dbscan rejects anything but kAuto/kBvhRt/kTriangles.
  index::IndexKind index = index::IndexKind::kAuto;

  /// ε², the quantity every exact distance filter compares against.
  [[nodiscard]] float eps_squared() const { return eps * eps; }
};

/// Label assigned to noise points in Clustering::labels.
inline constexpr std::int32_t kNoiseLabel = -1;

/// Point classification (§II-C).
enum class PointClass : std::uint8_t { kNoise = 0, kBorder = 1, kCore = 2 };

/// Phase-level timing breakdown, the quantity §V-D analyzes.
struct PhaseTimings {
  double index_build_seconds = 0.0;  ///< BVH / grid / graph construction
  double core_phase_seconds = 0.0;   ///< core-point identification
  double cluster_phase_seconds = 0.0;  ///< cluster formation
  double total_seconds = 0.0;

  [[nodiscard]] double clustering_seconds() const {
    return core_phase_seconds + cluster_phase_seconds;
  }
  /// Fraction of total time spent on actual clustering operations (paper:
  /// RT-DBSCAN 48% vs FDBSCAN 94% in the §V-D example).
  [[nodiscard]] double clustering_fraction() const {
    return total_seconds > 0.0 ? clustering_seconds() / total_seconds : 0.0;
  }
};

/// Result of one clustering run.
struct Clustering {
  /// Cluster id per point in [0, cluster_count), or kNoiseLabel.
  std::vector<std::int32_t> labels;
  /// Core flag per point.  Core points are deterministic given (eps,
  /// minPts); border/noise follow from them.
  std::vector<std::uint8_t> is_core;
  std::uint32_t cluster_count = 0;
  PhaseTimings timings;

  [[nodiscard]] std::size_t size() const { return labels.size(); }

  [[nodiscard]] PointClass classify(std::size_t i) const {
    if (is_core[i]) return PointClass::kCore;
    return labels[i] == kNoiseLabel ? PointClass::kNoise : PointClass::kBorder;
  }

  [[nodiscard]] std::size_t core_count() const {
    std::size_t c = 0;
    for (const auto f : is_core) c += f;
    return c;
  }

  [[nodiscard]] std::size_t noise_count() const {
    std::size_t c = 0;
    for (const auto l : labels) c += (l == kNoiseLabel);
    return c;
  }

  [[nodiscard]] std::size_t border_count() const {
    return size() - core_count() - noise_count();
  }

  /// Points in cluster `id`.
  [[nodiscard]] std::size_t cluster_size(std::int32_t id) const {
    std::size_t c = 0;
    for (const auto l : labels) c += (l == id);
    return c;
  }
};

/// Convert "same DSU set" parents into dense cluster labels, keeping only
/// sets that contain at least one core point (pure-noise singletons get
/// kNoiseLabel).  Shared by every union-find based implementation.
/// Core form: writes `labels`, returns the cluster count.  `root_label` is
/// caller-owned scratch (resized to n here) — the session API passes
/// persistent buffers so warm reruns stay allocation-free.
template <typename FindFn>
std::uint32_t finalize_labels_into(std::size_t n, FindFn&& find,
                                   std::span<const std::uint8_t> is_core,
                                   std::vector<std::int32_t>& labels,
                                   std::vector<std::int32_t>& root_label) {
  labels.assign(n, kNoiseLabel);
  root_label.assign(n, kNoiseLabel);
  std::int32_t next = 0;
  // First pass: label every root that owns a core point.
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!is_core[i]) continue;
    const std::uint32_t root = find(i);
    if (root_label[root] == kNoiseLabel) root_label[root] = next++;
  }
  // Second pass: propagate to members (border points share the root).
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t root = find(i);
    labels[i] = root_label[root];
  }
  return static_cast<std::uint32_t>(next);
}

template <typename FindFn>
void finalize_labels(std::size_t n, FindFn&& find,
                     std::span<const std::uint8_t> is_core, Clustering& out) {
  std::vector<std::int32_t> root_label;
  out.cluster_count = finalize_labels_into(n, std::forward<FindFn>(find),
                                           is_core, out.labels, root_label);
}

}  // namespace rtd::dbscan
