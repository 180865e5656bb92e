// Zero-allocation contract of the query hot path: once an index is built
// and one pass has warmed the thread-local scratch (rt/parallel_launch.hpp,
// index/query_scratch.hpp), a full query_all pass and individual
// query_sphere/query_count calls perform NO heap allocations, on every
// backend.  This TU replaces the global allocation functions with counting
// versions; it must stay its own test binary.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

#include "common/stage.hpp"
#include "core/clusterer.hpp"
#include "data/generators.hpp"
#include "index/neighbor_index.hpp"
#include "index/point_tree.hpp"
#include "index/query_scratch.hpp"
#include "telemetry/telemetry.hpp"

namespace {
std::atomic<std::uint64_t> g_live_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_live_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace rtd::index {
namespace {

// kTriangles builds at icosphere level 0 (20 triangles per point) here:
// its per-query owner dedup is the same at every level, and level 1 would
// multiply this binary's runtime, its sanitizer legs most of all.
IndexBuildOptions build_options() {
  IndexBuildOptions o;
  o.triangle_subdivisions = 0;
  return o;
}

Options session_options(IndexKind kind) {
  return Options().with_backend(kind).with_threads(1)
      .with_triangle_subdivisions(0);
}

std::uint64_t allocations_during(FunctionRef<void()> f) {
  const std::uint64_t before =
      g_live_allocations.load(std::memory_order_relaxed);
  f();
  return g_live_allocations.load(std::memory_order_relaxed) - before;
}

TEST(QueryAllocation, WarmQueryAllPassAllocatesNothingOnAnyBackend) {
  // Large enough that kPointBvh runs the wide SoA walk (n above
  // index::PointTree::kWideMinPoints), like kBvhRt at every size.
  const auto dataset = data::taxi_gps(10000, 77);
  const float eps = 0.15f;

  for (const IndexKind kind : kAllIndexKinds) {
    const auto index = make_index(dataset.points, eps, kind, build_options());
    std::uint64_t pair_count = 0;
    const auto pass = [&] {
      (void)index->query_all(
          eps, [&](std::uint32_t, std::uint32_t) { ++pair_count; },
          /*threads=*/1);
    };
    pass();  // warm: thread-local buffers reach their high-water mark
    pass();
    const std::uint64_t during = allocations_during(pass);
    EXPECT_EQ(during, 0u) << index->name();
    EXPECT_GT(pair_count, 0u) << index->name();
  }
}

TEST(QueryAllocation, WarmSingleQueriesAllocateNothing) {
  const auto dataset = data::taxi_gps(10000, 78);
  const float eps = 0.15f;
  for (const IndexKind kind : kAllIndexKinds) {
    const auto index = make_index(dataset.points, eps, kind, build_options());
    rt::TraversalStats stats;
    std::uint64_t sum = 0;
    const auto queries = [&] {
      for (std::uint32_t q = 0; q < 512; ++q) {
        index->query_sphere(dataset.points[q], eps, q,
                            [&](std::uint32_t j) { sum += j; }, stats);
        sum += index->query_count(dataset.points[q], eps, q, stats, 8);
      }
    };
    queries();
    EXPECT_EQ(allocations_during(queries), 0u) << index->name();
    EXPECT_GT(sum, 0u);
  }
}

TEST(QueryAllocation, WarmClustererRunsAllocateNothing) {
  // The session API's warm path is arena-only: once the index is built and
  // one run per parameter set has warmed every internal buffer (engine
  // workspace, result vectors, membership table) to its high-water mark,
  // further run() calls — same eps, either min_pts — allocate nothing.
  const auto dataset = data::taxi_gps(10000, 79);
  const float eps = 0.15f;
  for (const IndexKind kind : kAllIndexKinds) {
    Clusterer session(dataset.points, session_options(kind));
    std::uint64_t clusters = 0;
    const auto pass = [&] {
      clusters += session.run(eps, 5).cluster_count;
      clusters += session.run(eps, 12).cluster_count;
    };
    pass();  // cold: index build + buffer growth
    pass();  // warm every min_pts-specific high-water mark
    const std::uint64_t during = allocations_during(pass);
    EXPECT_EQ(during, 0u) << to_string(kind);
    EXPECT_GT(clusters, 0u) << to_string(kind);
  }
}

TEST(QueryAllocation, WarmSnapshotReadsAllocateNothing) {
  // The serving read path (core/index_snapshot.hpp) has the same warm
  // contract as the raw index: once the snapshot exists and one pass has
  // warmed the caller-owned output buffers and the thread-local query
  // scratch, query_neighbors_into and query_batch_into allocate nothing.
  // Checked on a freshly built index and again on a later version whose
  // delta tail has its own tree AND a linearly scanned residue (the tree
  // backends; the others rebuild or rescan).
  const auto dataset = data::taxi_gps(10000, 80);
  const auto extra = data::taxi_gps(DeltaTail::kResidue + 64, 82);
  const float eps = 0.15f;
  for (const IndexKind kind : kAllIndexKinds) {
    Clusterer session(dataset.points, session_options(kind));
    (void)session.run(eps, 5);

    const auto check_reads = [&](const char* version) {
      const auto snap = session.snapshot();
      std::vector<std::uint32_t> ids;
      std::uint64_t sum = 0;
      const auto singles = [&] {
        for (std::uint32_t q = 0; q < 256; ++q) {
          snap->query_neighbors_into(dataset.points[q], eps, q, ids);
          sum += ids.size();
          sum += snap->query_count(dataset.points[q], eps, q);
        }
      };
      singles();  // warm: ids reaches its high-water capacity
      singles();
      EXPECT_EQ(allocations_during(singles), 0u)
          << to_string(kind) << " " << version;
      EXPECT_GT(sum, 0u) << to_string(kind) << " " << version;

      const std::span<const geom::Vec3> centers(dataset.points.data(), 512);
      BatchQueryResult batch;
      const auto batched = [&] {
        snap->query_batch_into(centers, eps, /*threads=*/1, batch);
        sum += batch.ids.size();
      };
      batched();  // warm: CSR buffers reach their high-water mark
      batched();
      EXPECT_EQ(allocations_during(batched), 0u)
          << to_string(kind) << " " << version;
    };
    check_reads("built");

    // Past the residue in one batch (re-indexed into the tail tree), then
    // a short batch that stays in the residue.
    const std::span<const geom::Vec3> more(extra.points);
    (void)session.insert(more.first(DeltaTail::kResidue + 8));
    (void)session.insert(more.subspan(DeltaTail::kResidue + 8));
    check_reads("tail tree + residue");
  }
}

TEST(QueryAllocation, WarmMutationCyclesAllocateNothingOnAbsorbingBackends) {
  // Streaming contract: once one insert/remove cycle has warmed every
  // internal buffer (mutation scratch, repair-set workspace, result
  // vectors) to its high-water mark, further cycles below the rebuild
  // threshold allocate nothing on the backends that absorb mutations in
  // place.  The documented growth points — geometric point-storage and
  // scratch growth to a new high-water slot count, threshold-crossing
  // rebuilds — are kept out of the measured window by the warm cycles.
  const auto dataset = data::taxi_gps(300, 81);
  const float eps = 0.15f;
  for (const IndexKind kind :
       {IndexKind::kBruteForce, IndexKind::kPointBvh, IndexKind::kBvhRt}) {
    Clusterer session(dataset.points,
                      Options().with_backend(kind).with_threads(1));
    (void)session.run(eps, 5);

    float off = 1000.0f;
    std::uint64_t clusters = 0;
    const auto cycle = [&] {
      // Three far-away points in, then straight back out: the batch stays
      // below the rebuild threshold and exercises both mutation paths.
      const std::array<geom::Vec3, 3> batch = {
          geom::Vec3{off, 1000.0f, 0.0f},
          geom::Vec3{off + 0.01f, 1000.0f, 0.0f},
          geom::Vec3{off, 1000.01f, 0.0f}};
      off += 1.0f;
      const auto first = static_cast<std::uint32_t>(session.insert(batch));
      const std::array<std::uint32_t, 3> ids = {first, first + 1, first + 2};
      session.remove(ids);
      clusters += session.result().cluster_count;
    };
    cycle();  // cold: storage doubles, liveness mask and scratch appear
    cycle();  // warm the remaining high-water marks
    const std::uint64_t during = allocations_during([&] {
      cycle();
      cycle();
      cycle();
    });
    EXPECT_EQ(during, 0u) << to_string(kind);
    EXPECT_GT(clusters, 0u) << to_string(kind);
  }
}

TEST(QueryAllocation, FailpointSitesAddNoAllocationsToWarmPaths) {
  // The stages (common/stage.hpp) must not perturb the zero-allocation
  // contracts this binary certifies: with no fault armed, a stage is one
  // relaxed load of the armed word — allocation-free once the lazy env
  // parse has run (warmed below).
  { RTD_STAGE("engine.phase1"); }  // warm: triggers the one-time env parse
  const std::uint64_t during = allocations_during([] {
    for (int i = 0; i < 4096; ++i) {
      RTD_STAGE("engine.phase1");
      RTD_STAGE_AS(stage, "index.insert");
      if (stage.declined()) std::abort();
    }
  });
  EXPECT_EQ(during, 0u) << "disarmed stage allocated";
}

TEST(QueryAllocation, TelemetrySitesAddNoAllocationsToWarmPaths) {
  // The metric updates (telemetry/telemetry.hpp) carry the same contract:
  // disarmed, each is one relaxed load of the same word.
  telemetry::count(telemetry::Counter::kSessionRuns);
  const std::uint64_t disarmed = allocations_during([] {
    for (int i = 0; i < 4096; ++i) {
      telemetry::count(telemetry::Counter::kSnapshotReads);
      telemetry::gauge_set(telemetry::Gauge::kSessionLivePoints, i);
      telemetry::observe(telemetry::Histogram::kSnapshotReadLatency, 1e-6);
      RTD_STAGE("session.run");
    }
  });
  EXPECT_EQ(disarmed, 0u) << "disarmed telemetry site allocated";

  // Armed, the metric updates are relaxed RMWs into fixed arrays and a span
  // pushes into this thread's ring — preallocated at the first span (the
  // one cold allocation per thread, warmed below), so the armed warm path
  // is zero-allocation too.
  telemetry::arm(telemetry::kMetrics | telemetry::kTrace);
  { RTD_STAGE("session.run"); }  // warm: ring preallocation
  const std::uint64_t armed = allocations_during([] {
    for (int i = 0; i < 4096; ++i) {
      telemetry::count(telemetry::Counter::kSnapshotReads);
      telemetry::gauge_set(telemetry::Gauge::kSessionLivePoints, i);
      telemetry::observe(telemetry::Histogram::kSnapshotReadLatency, 1e-6);
      RTD_STAGE("session.run");
    }
  });
  EXPECT_EQ(armed, 0u) << "armed telemetry warm path allocated";
  telemetry::disarm_all();
  telemetry::reset();
}

TEST(QueryAllocation, ScratchArenaReusesCapacity) {
  QueryScratch& scratch = QueryScratch::local();
  auto& first = scratch.acquire_neighbors();
  first.assign(1024, 7u);
  const std::uint64_t during = allocations_during([&] {
    auto& again = scratch.acquire_neighbors();
    EXPECT_TRUE(again.empty());
    again.assign(512, 9u);  // within the warmed capacity
  });
  EXPECT_EQ(during, 0u);
}

}  // namespace
}  // namespace rtd::index
