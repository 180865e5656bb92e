// Substrate micro-benchmarks: sequential vs concurrent disjoint-set
// throughput (google-benchmark).
#include <benchmark/benchmark.h>

#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "dsu/atomic_disjoint_set.hpp"
#include "dsu/disjoint_set.hpp"

namespace {

using namespace rtd;

std::vector<std::pair<std::uint32_t, std::uint32_t>> random_pairs(
    std::size_t n, std::size_t ops) {
  Rng rng(3);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs(ops);
  for (auto& p : pairs) {
    p = {static_cast<std::uint32_t>(rng.below(n)),
         static_cast<std::uint32_t>(rng.below(n))};
  }
  return pairs;
}

void BM_SequentialUnite(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pairs = random_pairs(n, n);
  for (auto _ : state) {
    dsu::DisjointSet s(n);
    for (const auto& [a, b] : pairs) s.unite(a, b);
    benchmark::DoNotOptimize(s.set_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pairs.size()));
}
BENCHMARK(BM_SequentialUnite)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_AtomicUniteSerial(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pairs = random_pairs(n, n);
  for (auto _ : state) {
    dsu::AtomicDisjointSet s(n);
    for (const auto& [a, b] : pairs) s.unite(a, b);
    benchmark::DoNotOptimize(&s);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pairs.size()));
}
BENCHMARK(BM_AtomicUniteSerial)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_AtomicUniteParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pairs = random_pairs(n, n);
  for (auto _ : state) {
    dsu::AtomicDisjointSet s(n);
    parallel_for(pairs.size(), 0, [&](std::size_t i) {
      s.unite(pairs[i].first, pairs[i].second);
    });
    benchmark::DoNotOptimize(&s);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pairs.size()));
}
BENCHMARK(BM_AtomicUniteParallel)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_AtomicFindAfterUnions(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pairs = random_pairs(n, n);
  dsu::AtomicDisjointSet s(n);
  for (const auto& [a, b] : pairs) s.unite(a, b);
  std::uint32_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.find(q));
    q = (q + 7919) % static_cast<std::uint32_t>(n);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AtomicFindAfterUnions)->Arg(1000000);

}  // namespace
