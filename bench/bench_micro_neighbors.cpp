// Substrate micro-benchmarks: grid and brute-force neighbor queries, one
// RT-FindNeighborhood launch over a BvhRtIndex (google-benchmark), plus a
// sweep of every NeighborIndex backend through the uniform query_count /
// query_sphere / query_all contract — the apples-to-apples comparison the
// pluggable index layer exists for (BM_IndexQueryCount/bvhrt is the single
// RT query).
#include <benchmark/benchmark.h>

#include <atomic>

#include "data/generators.hpp"
#include "dbscan/grid_index.hpp"
#include "index/bvh_rt_index.hpp"
#include "rt/parallel_launch.hpp"

namespace {

using namespace rtd;

constexpr float kEps = 0.3f;

void BM_GridCountNeighbors(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dataset = data::taxi_gps(n, 7);
  const dbscan::GridIndex index(dataset.points, kEps);
  std::uint32_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.count_neighbors(dataset.points[q], kEps));
    q = (q + 1) % static_cast<std::uint32_t>(n);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GridCountNeighbors)->Arg(10000)->Arg(100000);

void BM_BruteCountNeighbors(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dataset = data::taxi_gps(n, 7);
  const float e2 = kEps * kEps;
  std::uint32_t q = 0;
  for (auto _ : state) {
    std::uint32_t count = 0;
    const auto& qp = dataset.points[q];
    for (const auto& p : dataset.points) {
      count += geom::distance_squared(qp, p) <= e2;
    }
    benchmark::DoNotOptimize(count);
    q = (q + 1) % static_cast<std::uint32_t>(n);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BruteCountNeighbors)->Arg(10000)->Arg(100000);

void BM_RtParallelLaunch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dataset = data::taxi_gps(n, 7);
  const index::BvhRtIndex scene(dataset.points, kEps);
  const index::NeighborIndex& index = scene;
  std::vector<std::uint32_t> counts(n);
  for (auto _ : state) {
    rt::parallel_launch(n, 0, [&](rt::TraversalStats& st, std::size_t i) {
      counts[i] = index.query_count(dataset.points[i], kEps,
                                    static_cast<std::uint32_t>(i), st);
    });
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RtParallelLaunch)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// NeighborIndex backend sweep: identical query through the virtual contract.
// ---------------------------------------------------------------------------

void BM_IndexBuild(benchmark::State& state, index::IndexKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dataset = data::taxi_gps(n, 7);
  for (auto _ : state) {
    const auto idx = index::make_index(dataset.points, kEps, kind);
    benchmark::DoNotOptimize(idx.get());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}

void BM_IndexQueryCount(benchmark::State& state, index::IndexKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dataset = data::taxi_gps(n, 7);
  const auto idx = index::make_index(dataset.points, kEps, kind);
  rt::TraversalStats stats;
  std::uint32_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        idx->query_count(dataset.points[q], kEps, q, stats));
    q = (q + 1) % static_cast<std::uint32_t>(n);
  }
  state.SetItemsProcessed(state.iterations());
}

// The visitor path: per-neighbor FunctionRef dispatch, the overhead the
// index layer's design notes quantify (docs/ARCHITECTURE.md).
void BM_IndexQuerySphere(benchmark::State& state, index::IndexKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dataset = data::taxi_gps(n, 7);
  const auto idx = index::make_index(dataset.points, kEps, kind);
  rt::TraversalStats stats;
  std::uint32_t q = 0;
  for (auto _ : state) {
    std::uint32_t visited = 0;
    idx->query_sphere(dataset.points[q], kEps, q,
                      [&](std::uint32_t) { ++visited; }, stats);
    benchmark::DoNotOptimize(visited);
    q = (q + 1) % static_cast<std::uint32_t>(n);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_IndexQueryAll(benchmark::State& state, index::IndexKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dataset = data::taxi_gps(n, 7);
  const auto idx = index::make_index(dataset.points, kEps, kind);
  for (auto _ : state) {
    // The visitor runs concurrently across query points, so count
    // atomically (relaxed: only the final value matters).
    std::atomic<std::uint64_t> pairs{0};
    idx->query_all(kEps, [&](std::uint32_t, std::uint32_t) {
      pairs.fetch_add(1, std::memory_order_relaxed);
    });
    benchmark::DoNotOptimize(pairs.load());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}

#define RTD_INDEX_BENCH(fn, kind_name, kind, ...)                       \
  BENCHMARK_CAPTURE(fn, kind_name, rtd::index::IndexKind::kind)         \
      __VA_ARGS__

RTD_INDEX_BENCH(BM_IndexBuild, grid, kGrid, ->Arg(100000));
RTD_INDEX_BENCH(BM_IndexBuild, densebox, kDenseBox, ->Arg(100000));
RTD_INDEX_BENCH(BM_IndexBuild, pointbvh, kPointBvh, ->Arg(100000));
RTD_INDEX_BENCH(BM_IndexBuild, bvhrt, kBvhRt, ->Arg(100000));

RTD_INDEX_BENCH(BM_IndexQueryCount, brute, kBruteForce, ->Arg(10000));
RTD_INDEX_BENCH(BM_IndexQueryCount, grid, kGrid, ->Arg(10000)->Arg(100000));
RTD_INDEX_BENCH(BM_IndexQueryCount, densebox, kDenseBox,
                ->Arg(10000)->Arg(100000));
RTD_INDEX_BENCH(BM_IndexQueryCount, pointbvh, kPointBvh,
                ->Arg(10000)->Arg(100000));
RTD_INDEX_BENCH(BM_IndexQueryCount, bvhrt, kBvhRt,
                ->Arg(10000)->Arg(100000));

RTD_INDEX_BENCH(BM_IndexQuerySphere, brute, kBruteForce, ->Arg(10000));
RTD_INDEX_BENCH(BM_IndexQuerySphere, grid, kGrid, ->Arg(10000));
RTD_INDEX_BENCH(BM_IndexQuerySphere, densebox, kDenseBox, ->Arg(10000));
RTD_INDEX_BENCH(BM_IndexQuerySphere, pointbvh, kPointBvh, ->Arg(10000));
RTD_INDEX_BENCH(BM_IndexQuerySphere, bvhrt, kBvhRt, ->Arg(10000));

RTD_INDEX_BENCH(BM_IndexQueryAll, grid, kGrid,
                ->Arg(10000)->Unit(benchmark::kMillisecond));
RTD_INDEX_BENCH(BM_IndexQueryAll, densebox, kDenseBox,
                ->Arg(10000)->Unit(benchmark::kMillisecond));
RTD_INDEX_BENCH(BM_IndexQueryAll, pointbvh, kPointBvh,
                ->Arg(10000)->Unit(benchmark::kMillisecond));
RTD_INDEX_BENCH(BM_IndexQueryAll, bvhrt, kBvhRt,
                ->Arg(10000)->Unit(benchmark::kMillisecond));

#undef RTD_INDEX_BENCH

}  // namespace
