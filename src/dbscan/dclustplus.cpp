#include "dbscan/dclustplus.hpp"

#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "dbscan/grid_index.hpp"
#include "dsu/atomic_disjoint_set.hpp"

namespace rtd::dbscan {

namespace {

/// Point ownership states; values >= 0 are chain ids.
constexpr std::uint32_t kUnprocessed = 0xffffffffu;
/// Non-core point processed as a seed but not yet claimed by any chain;
/// still claimable as a border point.
constexpr std::uint32_t kNoiseCandidate = 0xfffffffeu;

}  // namespace

DclustPlusResult dclust_plus(std::span<const geom::Vec3> points,
                             const Params& params,
                             const DclustPlusOptions& options) {
  require_eps(params.eps, "dclust_plus");
  if (params.min_pts == 0) {
    throw std::invalid_argument("dclust_plus: min_pts must be >= 1");
  }
  require_finite(points);

  const std::size_t n = points.size();
  DclustPlusResult result;
  Clustering& out = result.clustering;
  out.labels.assign(n, kNoiseLabel);
  out.is_core.assign(n, 0);
  if (n == 0) return result;

  const int threads = resolve_threads(options.threads);
  const std::uint32_t chains_per_round =
      options.chains_per_round > 0
          ? options.chains_per_round
          : static_cast<std::uint32_t>(4 * threads);

  Timer total;
  Timer phase;

  // Index structure build (the GPU-side grid of CUDA-DClust+).
  GridIndex index(points, params.eps);
  const float eps2 = params.eps_squared();
  std::atomic<std::uint64_t> distance_tests{0};

  // Coreness pass (see port notes in the header).
  std::vector<std::uint32_t> degree(n, 0);
  parallel_for(n, threads, [&](std::size_t i) {
    std::uint32_t candidates = 0;
    std::uint32_t d = 0;
    index.for_candidates(points[i], [&](std::uint32_t u) {
      ++candidates;
      if (geom::distance_squared(points[i], points[u]) <= eps2) ++d;
    });
    degree[i] = d;
    distance_tests.fetch_add(candidates, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    out.is_core[i] = degree[i] >= params.min_pts ? 1 : 0;
  }
  result.index_build_seconds = phase.seconds();

  // Chain expansion rounds.
  phase.restart();
  std::vector<std::atomic<std::uint32_t>> owner(n);
  parallel_for(n, threads, [&](std::size_t i) {
    owner[i].store(kUnprocessed, std::memory_order_relaxed);
  });

  // Chain ids are allocated per seed; collisions merge chains in a DSU.
  // Upper bound: one chain per point.
  dsu::AtomicDisjointSet chain_sets(n);
  std::atomic<std::uint32_t> collision_count{0};

  std::uint32_t next_seed_scan = 0;
  std::uint32_t chain_counter = 0;

  while (next_seed_scan < n) {
    // Collect the next batch of seeds: unprocessed points.  Non-core seeds
    // become noise candidates immediately (no chain growth), matching the
    // original's behaviour of discarding non-core seeds.
    std::vector<std::uint32_t> seeds;
    seeds.reserve(chains_per_round);
    while (next_seed_scan < n && seeds.size() < chains_per_round) {
      const std::uint32_t p = next_seed_scan++;
      if (owner[p].load(std::memory_order_relaxed) != kUnprocessed) continue;
      if (!out.is_core[p]) {
        std::uint32_t expected = kUnprocessed;
        owner[p].compare_exchange_strong(expected, kNoiseCandidate,
                                         std::memory_order_acq_rel);
        continue;
      }
      seeds.push_back(p);
    }
    if (seeds.empty()) continue;
    ++result.round_count;

    // Grow one chain per seed, chains in parallel (CUDA block per chain).
    const std::uint32_t base_chain = chain_counter;
    chain_counter += static_cast<std::uint32_t>(seeds.size());

#pragma omp parallel for schedule(dynamic, 1) num_threads(threads)
    for (std::int64_t s = 0; s < static_cast<std::int64_t>(seeds.size());
         ++s) {
      const std::uint32_t chain = base_chain + static_cast<std::uint32_t>(s);
      const std::uint32_t seed = seeds[static_cast<std::size_t>(s)];

      // Claim the seed; it may have been absorbed by a chain from an
      // earlier round (or a concurrent one) in the meantime.  A stolen core
      // seed is itself a chain collision: both chains contain that core
      // point, so they belong to one cluster and must be fused.
      std::uint32_t expected = kUnprocessed;
      if (!owner[seed].compare_exchange_strong(expected, chain,
                                               std::memory_order_acq_rel)) {
        if (expected != kNoiseCandidate) {
          chain_sets.unite(chain, expected);
          collision_count.fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }

      std::vector<std::uint32_t> frontier{seed};
      std::vector<std::uint32_t> next;
      std::uint64_t chain_tests = 0;
      while (!frontier.empty()) {
        next.clear();
        for (const std::uint32_t v : frontier) {
          // Only core points extend the chain.
          if (!out.is_core[v]) continue;
          index.for_candidates(points[v], [&](std::uint32_t u) {
            ++chain_tests;
            if (geom::distance_squared(points[v], points[u]) > eps2) {
              return;
            }
            std::uint32_t cur = owner[u].load(std::memory_order_acquire);
            while (cur == kUnprocessed || cur == kNoiseCandidate) {
              if (owner[u].compare_exchange_weak(cur, chain,
                                                 std::memory_order_acq_rel)) {
                next.push_back(u);
                return;
              }
            }
            // u belongs to another chain: collision if the link is
            // core-core (cluster-merging reachability).
            if (cur != chain && out.is_core[u]) {
              chain_sets.unite(chain, cur);
              collision_count.fetch_add(1, std::memory_order_relaxed);
            }
          });
        }
        frontier.swap(next);
      }
      distance_tests.fetch_add(chain_tests, std::memory_order_relaxed);
    }
  }
  result.chain_count = chain_counter;
  result.collision_count = collision_count.load();
  result.distance_tests = distance_tests.load();
  result.expansion_seconds = phase.seconds();

  // Resolve chains to clusters.  Points owned by a chain take the chain's
  // merged representative; unowned non-core points are noise.  A chain whose
  // seed was stolen by a concurrent chain owns no points and must not mint a
  // cluster label, so labels are assigned only to roots that own points.
  std::vector<std::int32_t> chain_label(chain_counter, kNoiseLabel);
  std::int32_t next_cluster = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t o = owner[i].load(std::memory_order_relaxed);
    if (o < chain_counter) {
      const std::uint32_t root = chain_sets.find(o);
      if (chain_label[root] == kNoiseLabel) chain_label[root] = next_cluster++;
      out.labels[i] = chain_label[root];
    }
  }
  out.cluster_count = static_cast<std::uint32_t>(next_cluster);

  out.timings.index_build_seconds = result.index_build_seconds;
  out.timings.cluster_phase_seconds = result.expansion_seconds;
  out.timings.total_seconds = total.seconds();
  return result;
}

}  // namespace rtd::dbscan
