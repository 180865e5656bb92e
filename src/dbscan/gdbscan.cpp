#include "dbscan/gdbscan.hpp"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "index/neighbor_index.hpp"
#include "rt/parallel_launch.hpp"

namespace rtd::dbscan {

GdbscanResult gdbscan(std::span<const geom::Vec3> points, const Params& params,
                      const GdbscanOptions& options) {
  require_eps(params.eps, "gdbscan");
  if (params.min_pts == 0) {
    throw std::invalid_argument("gdbscan: min_pts must be >= 1");
  }
  require_finite(points);

  const std::size_t n = points.size();
  GdbscanResult result;
  Clustering& out = result.clustering;
  out.labels.assign(n, kNoiseLabel);
  out.is_core.assign(n, 0);
  if (n == 0) return result;

  Timer total;
  Timer phase;

  // Neighbor queries behind the NeighborIndex contract.  The original GPU
  // kernels are brute-force all-pairs scans, so kAuto keeps that backend
  // (and its counters reproduce the paper's 2n² distance tests); an
  // explicit Params::index substitutes a smarter one.
  const index::IndexKind kind =
      index::resolve_auto(params.index, index::IndexKind::kBruteForce);
  const auto index =
      index::make_index(points, params.eps, kind, {.threads = options.threads});

  // Pass 1 (GPU kernel "vertices degree calculation"): degree count per
  // point.  Degrees include the point itself (+1: the index excludes self).
  std::vector<std::uint32_t> degree(n, 0);
  rt::TraversalStats work = rt::parallel_launch(
      n, options.threads, [&](rt::TraversalStats& st, std::size_t i) {
        degree[i] = index->query_count(points[i], params.eps,
                                       static_cast<std::uint32_t>(i), st) +
                    1;
      }).work;

  // Exclusive scan for CSR offsets ("adjacency lists start indices").
  std::vector<std::uint64_t> offset(n + 1, 0);
  std::partial_sum(degree.begin(), degree.end(), offset.begin() + 1);
  const std::uint64_t edges = offset[n];
  result.edge_count = edges;
  result.graph_bytes = edges * sizeof(std::uint32_t) +
                       (n + 1) * sizeof(std::uint64_t);
  if (result.graph_bytes > options.memory_budget_bytes) {
    // The paper: "both G-DBSCAN and CUDA-DClust+ ran out of memory on our
    // GPU for more than 100K points."
    throw DeviceMemoryError(result.graph_bytes, options.memory_budget_bytes);
  }

  // Pass 2 ("adjacency lists assembly"): query again, writing ids (the
  // self-edge first, then the index's enumeration order).
  std::vector<std::uint32_t> adjacency(edges);
  work += rt::parallel_launch(
      n, options.threads, [&](rt::TraversalStats& st, std::size_t i) {
        std::uint64_t w = offset[i];
        adjacency[w++] = static_cast<std::uint32_t>(i);
        index->query_sphere(points[i], params.eps,
                            static_cast<std::uint32_t>(i),
                            [&](std::uint32_t j) { adjacency[w++] = j; },
                            st);
      }).work;
  for (std::size_t i = 0; i < n; ++i) {
    out.is_core[i] = degree[i] >= params.min_pts ? 1 : 0;
  }
  // Candidate distance tests the device would execute across both passes
  // (brute force: exactly 2n², the paper's count).
  result.distance_tests = work.isect_calls;
  result.graph_build_seconds = phase.seconds();

  // Cluster identification: level-synchronous parallel BFS from each
  // yet-unlabeled core point; only core points expand the frontier, border
  // points are absorbed but not expanded.
  phase.restart();
  std::vector<std::atomic<std::uint8_t>> visited(n);
  parallel_for(n, options.threads, [&](std::size_t i) {
    visited[i].store(0, std::memory_order_relaxed);
  });

  std::int32_t next_cluster = 0;
  std::vector<std::uint32_t> frontier;
  std::vector<std::uint32_t> next;

  for (std::uint32_t seed = 0; seed < n; ++seed) {
    if (!out.is_core[seed]) continue;
    if (visited[seed].load(std::memory_order_relaxed)) continue;
    visited[seed].store(1, std::memory_order_relaxed);

    const std::int32_t cluster = next_cluster++;
    out.labels[seed] = cluster;
    frontier.assign(1, seed);

    while (!frontier.empty()) {
      ++result.bfs_levels;
      next.clear();
      parallel_for_accumulate(
          frontier.size(), options.threads,
          [] { return std::vector<std::uint32_t>{}; },
          [&](std::vector<std::uint32_t>& found, std::size_t fi) {
            const std::uint32_t v = frontier[fi];
            if (!out.is_core[v]) return;  // border: absorbed, not expanded
            for (std::uint64_t e = offset[v]; e < offset[v + 1]; ++e) {
              const std::uint32_t u = adjacency[e];
              std::uint8_t expected = 0;
              if (visited[u].compare_exchange_strong(
                      expected, 1, std::memory_order_acq_rel)) {
                out.labels[u] = cluster;
                found.push_back(u);
              }
            }
          },
          [&](const std::vector<std::uint32_t>& found) {
            next.insert(next.end(), found.begin(), found.end());
          });
      frontier.swap(next);
    }
  }

  // BFS visits border points from whichever cluster reaches them first; any
  // remaining unvisited non-core points are noise (labels already -1).
  out.cluster_count = static_cast<std::uint32_t>(next_cluster);
  result.bfs_seconds = phase.seconds();
  out.timings.index_build_seconds = result.graph_build_seconds;
  out.timings.cluster_phase_seconds = result.bfs_seconds;
  out.timings.total_seconds = total.seconds();
  return result;
}

}  // namespace rtd::dbscan
