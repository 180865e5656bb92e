#include "dbscan/equivalence.hpp"

#include <cstdint>
#include <map>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "index/grid_index.hpp"

namespace rtd::dbscan {

namespace {

EquivalenceResult fail(std::string reason) {
  return {false, std::move(reason)};
}

EquivalenceResult ok() { return {true, {}}; }

}  // namespace

EquivalenceResult check_equivalent(std::span<const geom::Vec3> points,
                                   const Params& params, const Clustering& a,
                                   const Clustering& b) {
  const std::size_t n = points.size();
  if (a.labels.size() != n || b.labels.size() != n) {
    return fail("label vector size mismatch");
  }
  if (a.is_core.size() != n || b.is_core.size() != n) {
    return fail("core vector size mismatch");
  }

  // 1. Core sets must match exactly.
  for (std::size_t i = 0; i < n; ++i) {
    if (a.is_core[i] != b.is_core[i]) {
      std::ostringstream os;
      os << "core flag mismatch at point " << i << " (a="
         << int(a.is_core[i]) << ", b=" << int(b.is_core[i]) << ")";
      return fail(os.str());
    }
  }

  // 2. Core partitions must match up to label renaming (bijection check).
  std::unordered_map<std::int32_t, std::int32_t> a_to_b;
  std::unordered_map<std::int32_t, std::int32_t> b_to_a;
  for (std::size_t i = 0; i < n; ++i) {
    if (!a.is_core[i]) continue;
    const std::int32_t la = a.labels[i];
    const std::int32_t lb = b.labels[i];
    if (la == kNoiseLabel || lb == kNoiseLabel) {
      std::ostringstream os;
      os << "core point " << i << " labeled noise";
      return fail(os.str());
    }
    const auto [ita, inserted_a] = a_to_b.emplace(la, lb);
    if (!inserted_a && ita->second != lb) {
      std::ostringstream os;
      os << "core partition mismatch: a-cluster " << la
         << " maps to b-clusters " << ita->second << " and " << lb
         << " (witness point " << i << ")";
      return fail(os.str());
    }
    const auto [itb, inserted_b] = b_to_a.emplace(lb, la);
    if (!inserted_b && itb->second != la) {
      std::ostringstream os;
      os << "core partition mismatch: b-cluster " << lb
         << " maps to a-clusters " << itb->second << " and " << la
         << " (witness point " << i << ")";
      return fail(os.str());
    }
  }

  // 3. Noise sets must match exactly.
  for (std::size_t i = 0; i < n; ++i) {
    const bool noise_a = a.labels[i] == kNoiseLabel;
    const bool noise_b = b.labels[i] == kNoiseLabel;
    if (noise_a != noise_b) {
      std::ostringstream os;
      os << "noise mismatch at point " << i << " (a="
         << (noise_a ? "noise" : "clustered") << ", b="
         << (noise_b ? "noise" : "clustered") << ")";
      return fail(os.str());
    }
  }

  // 4. Border validity in both clusterings: the assigned cluster must have a
  //    core point within eps.
  const index::GridIndex grid(points, params.eps);
  rt::TraversalStats stats;
  auto check_borders = [&](const Clustering& c,
                           const char* name) -> EquivalenceResult {
    for (std::uint32_t i = 0; i < n; ++i) {
      if (c.is_core[i] || c.labels[i] == kNoiseLabel) continue;
      bool valid = false;
      grid.query_sphere(points[i], params.eps, i, [&](std::uint32_t j) {
        if (c.is_core[j] && c.labels[j] == c.labels[i]) valid = true;
      }, stats);
      if (!valid) {
        std::ostringstream os;
        os << name << ": border point " << i << " assigned to cluster "
           << c.labels[i] << " with no core of that cluster within eps";
        return fail(os.str());
      }
    }
    return ok();
  };
  if (auto r = check_borders(a, "a"); !r) return r;
  if (auto r = check_borders(b, "b"); !r) return r;

  if (a.cluster_count != b.cluster_count) {
    std::ostringstream os;
    os << "cluster count mismatch: a=" << a.cluster_count
       << ", b=" << b.cluster_count;
    return fail(os.str());
  }
  return ok();
}

EquivalenceResult check_valid(std::span<const geom::Vec3> points,
                              const Params& params, const Clustering& c) {
  const std::size_t n = points.size();
  if (c.labels.size() != n || c.is_core.size() != n) {
    return fail("result vector size mismatch");
  }
  if (n == 0) return ok();

  const index::GridIndex grid(points, params.eps);
  rt::TraversalStats stats;

  for (std::uint32_t i = 0; i < n; ++i) {
    // Core flags must match the true neighbor counts (self included).
    const std::uint32_t count =
        grid.query_count(points[i], params.eps, index::kNoSelf, stats,
                         index::kNoCap);
    const bool should_be_core = count >= params.min_pts;
    if (bool(c.is_core[i]) != should_be_core) {
      std::ostringstream os;
      os << "point " << i << " has " << count << " eps-neighbors but is_core="
         << int(c.is_core[i]) << " (min_pts=" << params.min_pts << ")";
      return fail(os.str());
    }

    bool has_core_neighbor_same_label = false;
    bool has_core_neighbor = false;
    grid.query_sphere(points[i], params.eps, i, [&](std::uint32_t j) {
      if (!c.is_core[j]) return;
      has_core_neighbor = true;
      if (c.labels[j] == c.labels[i]) has_core_neighbor_same_label = true;
    }, stats);

    if (c.is_core[i]) {
      if (c.labels[i] == kNoiseLabel) {
        std::ostringstream os;
        os << "core point " << i << " labeled noise";
        return fail(os.str());
      }
      // Directly reachable cores must share a cluster.
      bool core_neighbor_mismatch = false;
      std::uint32_t witness = 0;
      grid.query_sphere(points[i], params.eps, i, [&](std::uint32_t j) {
        if (c.is_core[j] && c.labels[j] != c.labels[i]) {
          core_neighbor_mismatch = true;
          witness = j;
        }
      }, stats);
      if (core_neighbor_mismatch) {
        std::ostringstream os;
        os << "adjacent core points " << i << " and " << witness
           << " carry different cluster labels";
        return fail(os.str());
      }
    } else if (c.labels[i] != kNoiseLabel) {
      // Border: must be justified by a core of the same cluster within eps.
      if (!has_core_neighbor_same_label) {
        std::ostringstream os;
        os << "border point " << i << " has no same-cluster core within eps";
        return fail(os.str());
      }
    } else {
      // Noise: must have no core neighbor at all.
      if (has_core_neighbor) {
        std::ostringstream os;
        os << "noise point " << i
           << " has a core neighbor and should be a border point";
        return fail(os.str());
      }
    }
  }

  // Labels must be dense in [0, cluster_count).
  std::vector<bool> used(c.cluster_count, false);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t l = c.labels[i];
    if (l == kNoiseLabel) continue;
    if (l < 0 || static_cast<std::uint32_t>(l) >= c.cluster_count) {
      std::ostringstream os;
      os << "label " << l << " out of range [0, " << c.cluster_count << ")";
      return fail(os.str());
    }
    used[static_cast<std::size_t>(l)] = true;
  }
  for (std::size_t l = 0; l < used.size(); ++l) {
    if (!used[l]) {
      std::ostringstream os;
      os << "cluster label " << l << " is empty";
      return fail(os.str());
    }
  }
  return ok();
}

double adjusted_rand_index(std::span<const std::int32_t> a,
                           std::span<const std::int32_t> b) {
  const std::size_t n = a.size();
  if (n != b.size() || n < 2) return n == b.size() ? 1.0 : 0.0;

  // Contingency table over (label_a, label_b) pairs; noise is a cluster.
  std::map<std::pair<std::int32_t, std::int32_t>, std::uint64_t> joint;
  std::map<std::int32_t, std::uint64_t> count_a;
  std::map<std::int32_t, std::uint64_t> count_b;
  for (std::size_t i = 0; i < n; ++i) {
    ++joint[{a[i], b[i]}];
    ++count_a[a[i]];
    ++count_b[b[i]];
  }

  const auto choose2 = [](std::uint64_t x) {
    return static_cast<double>(x) * static_cast<double>(x - 1) / 2.0;
  };
  double sum_joint = 0.0;
  for (const auto& [key, c] : joint) sum_joint += choose2(c);
  double sum_a = 0.0;
  for (const auto& [key, c] : count_a) sum_a += choose2(c);
  double sum_b = 0.0;
  for (const auto& [key, c] : count_b) sum_b += choose2(c);

  const double total = choose2(n);
  const double expected = sum_a * sum_b / total;
  const double max_index = (sum_a + sum_b) / 2.0;
  if (max_index == expected) return 1.0;  // degenerate: single cluster
  return (sum_joint - expected) / (max_index - expected);
}

}  // namespace rtd::dbscan
