// Concurrent serving layer: rtd::Clusterer::snapshot() and the const query
// overloads must (a) answer exactly like a brute-force oracle on every
// backend, (b) enforce each backend's radius rules, (c) keep an issued
// snapshot valid and UNCHANGED while the session retargets ε underneath it
// (shared_ptr-epoch reclamation — the writer swaps in a replacement instead
// of mutating a structure a reader may be traversing), and (d) stay
// data-race-free with any number of reader threads hammering the const path
// while a writer refits in a loop.  Run this binary under the `tsan` preset
// to get (d) checked by ThreadSanitizer, not just by assertion.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "core/clusterer.hpp"
#include "data/generators.hpp"

namespace rtd {
namespace {

using geom::Vec3;
using index::IndexKind;

/// Brute-force ε-neighborhood, ascending.  self = kNoSelf keeps `self` in.
std::vector<std::uint32_t> brute_neighbors(std::span<const Vec3> pts,
                                           const Vec3& center, float eps,
                                           std::uint32_t self) {
  const float eps2 = eps * eps;
  std::vector<std::uint32_t> out;
  for (std::uint32_t j = 0; j < pts.size(); ++j) {
    if (j != self && geom::distance_squared(center, pts[j]) <= eps2) {
      out.push_back(j);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Oracle parity of the const read path, per backend.
// ---------------------------------------------------------------------------

TEST(Serving, SnapshotMatchesBruteOracleOnEveryBackend) {
  const auto dataset = data::taxi_gps(1200, 81);
  const float eps = 0.3f;
  for (const IndexKind kind : index::kAllIndexKinds) {
    Clusterer session(dataset.points, Options().with_backend(kind));
    (void)session.run(eps, 8);
    const auto snap = session.snapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->eps(), eps);
    EXPECT_EQ(snap->backend(), kind);
    EXPECT_EQ(snap->size(), dataset.size());
    for (const std::uint32_t q : {0u, 321u, 1199u}) {
      const Vec3& c = dataset.points[q];
      // Off-dataset center semantics: q itself is included.
      EXPECT_EQ(snap->query_neighbors(c),
                brute_neighbors(dataset.points, c, eps, index::kNoSelf))
          << index::to_string(kind);
      // Dataset-index form excludes q.
      EXPECT_EQ(snap->query_neighbors(q),
                brute_neighbors(dataset.points, c, eps, q))
          << index::to_string(kind);
      // Explicit smaller radius is legal on EVERY backend (kBvhRt filters
      // its built-ε enumeration exactly; the grid's one-ring covers it).
      const float smaller = eps * 0.6f;
      EXPECT_EQ(snap->query_neighbors(c, smaller),
                brute_neighbors(dataset.points, c, smaller, index::kNoSelf))
          << index::to_string(kind);
      EXPECT_EQ(snap->query_count(c, smaller),
                brute_neighbors(dataset.points, c, smaller, index::kNoSelf)
                    .size())
          << index::to_string(kind);
      // The session-level const overloads serve the same snapshot.
      EXPECT_EQ(std::as_const(session).query_neighbors(c),
                snap->query_neighbors(c));
      EXPECT_EQ(std::as_const(session).query_neighbors(q),
                snap->query_neighbors(q));
    }
  }
}

TEST(Serving, TriangleSnapshotsMatchBruteForceAcrossAdvance) {
  // §VI-C sessions serve through the same snapshot path: a held snapshot
  // answers over ITS epoch while the session streams past it, and a fresh
  // one answers over the live set.
  const auto base = data::taxi_gps(600, 87);
  const auto extra = data::taxi_gps(40, 88);
  const float eps = 0.3f;
  Clusterer session(base.points,
                    Options().with_backend(IndexKind::kTriangles));
  (void)session.run(eps, 5);
  const auto held = session.snapshot();
  (void)session.advance(extra.points, extra.size());  // expires slots 0..39
  const auto fresh = session.snapshot();
  ASSERT_NE(held, fresh);
  EXPECT_EQ(fresh->backend(), IndexKind::kTriangles);
  const std::span<const Vec3> all = session.points();
  for (const Vec3& c : {base.points[0], base.points[300], extra.points[5]}) {
    EXPECT_EQ(held->query_neighbors(c),
              brute_neighbors(base.points, c, eps, index::kNoSelf));
    std::vector<std::uint32_t> live =
        brute_neighbors(all, c, eps, index::kNoSelf);
    std::erase_if(live, [&](std::uint32_t j) { return j < extra.size(); });
    EXPECT_EQ(fresh->query_neighbors(c), live);
    EXPECT_EQ(std::as_const(session).query_neighbors(c), live);
  }
}

TEST(Serving, RadiusRulesPerBackend) {
  const auto dataset = data::taxi_gps(800, 82);
  const float eps = 0.25f;
  const float larger = eps * 1.7f;
  const Vec3 c = dataset.points[100];
  for (const IndexKind kind : index::kAllIndexKinds) {
    Clusterer session(dataset.points, Options().with_backend(kind));
    (void)session.run(eps, 5);
    const auto snap = session.snapshot();
    const bool radius_agnostic = kind == IndexKind::kPointBvh ||
                                 kind == IndexKind::kBruteForce ||
                                 kind == IndexKind::kDenseBox;
    if (radius_agnostic) {
      // Larger-than-built queries are legal where the structure doesn't
      // bake the radius in.
      EXPECT_EQ(snap->query_neighbors(c, larger),
                brute_neighbors(dataset.points, c, larger, index::kNoSelf))
          << index::to_string(kind);
    } else {
      // kGrid's one-ring guarantee and kBvhRt's baked sphere radius cannot
      // answer a larger ball: loud error, not silent truncation.
      EXPECT_THROW((void)snap->query_neighbors(c, larger),
                   std::invalid_argument)
          << index::to_string(kind);
    }
  }
}

// ---------------------------------------------------------------------------
// Epoch reclamation: retargets never mutate an issued snapshot.
// ---------------------------------------------------------------------------

TEST(Serving, SnapshotSurvivesSessionRetargetUnchanged) {
  const auto dataset = data::taxi_gps(1000, 83);
  const float eps1 = 0.2f;
  const float eps2 = 0.45f;
  Clusterer session(dataset.points,
                    Options().with_backend(IndexKind::kBvhRt));
  (void)session.run(eps1, 6);
  const auto old_snap = session.snapshot();
  EXPECT_EQ(old_snap->eps(), eps1);

  // Retarget the session.  The old snapshot is aliased, so the writer must
  // build a REPLACEMENT — the old structure keeps answering at eps1.
  (void)session.run(eps2, 6);
  EXPECT_EQ(old_snap->eps(), eps1);
  const auto new_snap = session.snapshot();
  EXPECT_EQ(new_snap->eps(), eps2);
  EXPECT_NE(old_snap.get(), new_snap.get());
  for (const std::uint32_t q : {13u, 500u, 999u}) {
    const Vec3& c = dataset.points[q];
    EXPECT_EQ(old_snap->query_neighbors(c),
              brute_neighbors(dataset.points, c, eps1, index::kNoSelf));
    EXPECT_EQ(new_snap->query_neighbors(c),
              brute_neighbors(dataset.points, c, eps2, index::kNoSelf));
  }

  // Dropping the session entirely must not invalidate a held snapshot
  // (it co-owns the index AND the point storage).
  auto parked = session.snapshot();
  {
    Clusterer moved = std::move(session);
  }  // session destroyed
  EXPECT_EQ(parked->query_neighbors(dataset.points[13]),
            brute_neighbors(dataset.points, dataset.points[13], eps2,
                            index::kNoSelf));
}

TEST(Serving, SnapshotPointsSurviveInPlaceAppends) {
  // Writes under a held snapshot append past the snapshot's prefix of the
  // point buffer instead of copying the session's points: once one insert
  // has grown the buffer, later inserts and advances leave points().data()
  // where it was, and every held snapshot's points byte-identical.
  const auto dataset = data::taxi_gps(1500, 93);
  const auto extra = data::taxi_gps(80, 94);
  const std::span<const Vec3> more(extra.points);
  const float eps = 0.25f;
  Clusterer session(dataset.points,
                    Options().with_backend(IndexKind::kBvhRt).with_threads(1));
  (void)session.run(eps, 5);
  (void)session.insert(more.first(8));  // the adopted vector is full: grow
  const Vec3* const buffer = session.points().data();

  std::vector<std::shared_ptr<const IndexSnapshot>> held;
  std::vector<std::vector<Vec3>> copies;
  for (std::size_t k = 1; k < 10; ++k) {
    held.push_back(session.snapshot());
    const std::span<const Vec3> pts = held.back()->points();
    copies.emplace_back(pts.begin(), pts.end());
    const auto batch = more.subspan(8 * k, 8);
    if (k % 2 == 0) {
      (void)session.advance(batch, 3);
    } else {
      (void)session.insert(batch);
    }
    EXPECT_EQ(session.points().data(), buffer)
        << "write " << k << " under a held snapshot copied the points";
    for (std::size_t h = 0; h < held.size(); ++h) {
      const std::span<const Vec3> snap_pts = held[h]->points();
      ASSERT_EQ(snap_pts.size(), copies[h].size());
      EXPECT_EQ(std::memcmp(snap_pts.data(), copies[h].data(),
                            copies[h].size() * sizeof(Vec3)),
                0)
          << "snapshot " << h << " changed under write " << k;
    }
  }
  // The session's view is the base points followed by every batch.
  ASSERT_EQ(session.size(), dataset.size() + more.size());
  EXPECT_EQ(std::memcmp(session.points().data(), dataset.points.data(),
                        dataset.size() * sizeof(Vec3)),
            0);
  EXPECT_EQ(std::memcmp(session.points().data() + dataset.size(), more.data(),
                        more.size() * sizeof(Vec3)),
            0);
  // Held snapshots still answer exactly over their own points.
  const Vec3& probe = dataset.points[700];
  EXPECT_EQ(held.front()->query_neighbors(probe),
            brute_neighbors(held.front()->points(), probe, eps,
                            index::kNoSelf));
  EXPECT_TRUE(session.validate(ValidationLevel::kCounts)) << "after appends";
}

TEST(Serving, BatchRolledBackUnderAHeldSnapshotKeepsServing) {
  // A held snapshot makes the write absorb its batch into a clone of the
  // index.  When the batch then fails (here in its insert counting, after
  // the absorb), the session goes back to the pre-clone version: it keeps
  // answering reads with the pre-batch points instead of throwing until
  // the next write rebuilds an index.
  const auto dataset = data::taxi_gps(1216, 95);
  const std::span<const Vec3> all(dataset.points);
  const std::span<const Vec3> base = all.first(1200);
  const std::span<const Vec3> batch = all.subspan(1200, 16);
  const float eps = 0.25f;
  Clusterer session(base,
                    Options().with_backend(IndexKind::kBvhRt).with_threads(1));
  (void)session.run(eps, 5);
  const auto held = session.snapshot();
  const std::vector<std::uint32_t> probes{0, 3, 640, 1199};
  std::vector<std::vector<std::uint32_t>> before;
  for (const std::uint32_t q : probes) {
    before.push_back(std::as_const(session).query_neighbors(base[q]));
  }

  fail::disarm_all();
  fail::arm("engine.phase1_insert", {.action = fail::Action::kThrowError});
  EXPECT_THROW((void)session.advance(batch, 8), std::runtime_error);
  fail::disarm_all();

  EXPECT_EQ(session.health(), SessionHealth::kHealthy);
  ASSERT_EQ(session.size(), base.size());
  std::shared_ptr<const IndexSnapshot> snap;
  ASSERT_NO_THROW(snap = session.snapshot());
  EXPECT_EQ(snap->size(), base.size());
  for (std::size_t k = 0; k < probes.size(); ++k) {
    const Vec3& c = base[probes[k]];
    EXPECT_EQ(std::as_const(session).query_neighbors(c), before[k]) << k;
    EXPECT_EQ(snap->query_neighbors(c),
              brute_neighbors(base, c, eps, index::kNoSelf))
        << k;
  }

  // The restored version is still shared with `held`: the retry clones it
  // again and commits.
  (void)session.advance(batch, 8);
  EXPECT_EQ(session.size(), base.size() + batch.size());
  EXPECT_EQ(held->size(), base.size());
  EXPECT_TRUE(session.validate(ValidationLevel::kCounts)) << "after retry";
}

TEST(Serving, SnapshotIsCachedUntilRetarget) {
  const auto dataset = data::taxi_gps(400, 84);
  Clusterer session(dataset.points);
  (void)session.run(0.3f, 5);
  const auto a = session.snapshot();
  const auto b = session.snapshot();
  EXPECT_EQ(a.get(), b.get());  // steady state: one atomic load, same object
  (void)session.run(0.3f, 9);   // min_pts-only rerun: index untouched
  EXPECT_EQ(session.snapshot().get(), a.get());
  (void)session.run(0.5f, 5);  // ε retarget: republish
  EXPECT_NE(session.snapshot().get(), a.get());
}

// ---------------------------------------------------------------------------
// Batched queries.
// ---------------------------------------------------------------------------

TEST(Serving, QueryBatchMatchesOracleInCsrForm) {
  const auto dataset = data::taxi_gps(1500, 85);
  const float built = 0.35f;
  for (const IndexKind kind :
       {IndexKind::kBvhRt, IndexKind::kGrid, IndexKind::kPointBvh}) {
    Clusterer session(dataset.points,
                      Options().with_backend(kind).with_threads(1));
    (void)session.run(built, 8);

    std::vector<Vec3> centers;
    for (std::uint32_t q = 0; q < dataset.size(); q += 97) {
      centers.push_back(dataset.points[q]);
    }
    centers.push_back(Vec3{0.1f, 0.2f, 0.0f});  // off-dataset center
    const float eps = built * 0.8f;  // below built: legal on all three
    const BatchQueryResult batch =
        std::as_const(session).query_batch(centers, eps);

    ASSERT_EQ(batch.query_count(), centers.size());
    ASSERT_EQ(batch.starts.size(), centers.size() + 1);
    EXPECT_EQ(batch.starts.front(), 0u);
    EXPECT_EQ(batch.starts.back(), batch.ids.size());
    for (std::size_t q = 0; q < centers.size(); ++q) {
      const auto got = batch.neighbors_of(q);
      const auto want = brute_neighbors(dataset.points, centers[q], eps,
                                        index::kNoSelf);
      ASSERT_EQ(got.size(), want.size())
          << index::to_string(kind) << " center " << q;
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
          << index::to_string(kind) << " center " << q;
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    }
    // Out-of-range bucket: empty view, not UB.
    EXPECT_TRUE(batch.neighbors_of(centers.size()).empty());

    // The _into form refills reused buffers with identical content.
    const auto snap = session.snapshot();
    BatchQueryResult again;
    snap->query_batch_into(centers, eps, /*threads=*/1, again);
    EXPECT_EQ(again.ids, batch.ids);
    EXPECT_EQ(again.starts, batch.starts);

    // Empty center list: well-formed empty result.
    const BatchQueryResult empty = snap->query_batch({}, eps);
    EXPECT_EQ(empty.query_count(), 0u);
    EXPECT_TRUE(empty.ids.empty());
  }
}

// ---------------------------------------------------------------------------
// Validation and lifecycle errors.
// ---------------------------------------------------------------------------

TEST(Serving, RejectsInvalidRequests) {
  const auto dataset = data::taxi_gps(300, 86);
  const float nan = std::numeric_limits<float>::quiet_NaN();

  // Before the first run there is no index: logic_error, loudly.
  Clusterer fresh(dataset.points);
  EXPECT_THROW((void)fresh.snapshot(), std::logic_error);
  EXPECT_THROW((void)std::as_const(fresh).query_neighbors(Vec3{0, 0, 0}),
               std::logic_error);
  EXPECT_THROW((void)std::as_const(fresh).query_neighbors(0u),
               std::logic_error);

  Clusterer session(dataset.points);
  (void)session.run(0.3f, 5);
  const auto snap = session.snapshot();
  const Vec3 bad_center{0.0f, nan, 0.0f};
  EXPECT_THROW((void)snap->query_neighbors(bad_center),
               std::invalid_argument);
  EXPECT_THROW((void)snap->query_neighbors(Vec3{0, 0, 0}, 0.0f),
               std::invalid_argument);
  EXPECT_THROW((void)snap->query_neighbors(Vec3{0, 0, 0}, nan),
               std::invalid_argument);
  EXPECT_THROW((void)snap->query_neighbors(9999u), std::invalid_argument);
  EXPECT_THROW((void)std::as_const(session).query_neighbors(9999u),
               std::invalid_argument);
  // Batch validation happens up front, BEFORE any parallel region.
  const std::vector<Vec3> bad_batch = {Vec3{0, 0, 0}, bad_center};
  EXPECT_THROW((void)snap->query_batch(bad_batch, 0.2f),
               std::invalid_argument);
  EXPECT_THROW((void)snap->query_batch(bad_batch, nan),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The concurrency hammer: N reader threads vs a retargeting writer.
// Assertion-checked here; the `tsan` preset additionally runs this whole
// binary under ThreadSanitizer.
// ---------------------------------------------------------------------------

TEST(ServingConcurrent, ReadersNeverTearWhileWriterRefits) {
  const auto dataset = data::taxi_gps(600, 87);
  const float eps1 = 0.2f;
  const float eps2 = 0.4f;
  constexpr int kReaders = 4;
  constexpr int kWriterRetargets = 60;

  // Probe points + their oracle neighborhoods at BOTH ladder values — a
  // coherent snapshot answers entirely at one of the two.
  const std::vector<std::uint32_t> probes = {5u, 123u, 321u, 599u};
  std::vector<std::vector<std::uint32_t>> want1, want2;
  for (const std::uint32_t q : probes) {
    want1.push_back(brute_neighbors(dataset.points, dataset.points[q], eps1,
                                    index::kNoSelf));
    want2.push_back(brute_neighbors(dataset.points, dataset.points[q], eps2,
                                    index::kNoSelf));
    ASSERT_NE(want1.back(), want2.back()) << q;  // torn results detectable
  }

  for (const IndexKind kind : {IndexKind::kBvhRt, IndexKind::kGrid}) {
    // threads=1: every query launch runs inline on the calling thread, so
    // reader parallelism comes from the std::threads below.
    Clusterer session(dataset.points,
                      Options().with_backend(kind).with_threads(1));
    (void)session.run(eps1, 5);

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> torn{0};
    std::atomic<std::uint64_t> bad_eps{0};

    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        std::size_t p = static_cast<std::size_t>(r) % probes.size();
        while (!done.load(std::memory_order_relaxed)) {
          const auto snap = session.snapshot();
          const float se = snap->eps();
          if (se != eps1 && se != eps2) {
            bad_eps.fetch_add(1, std::memory_order_relaxed);
          }
          const auto& want = se == eps1 ? want1[p] : want2[p];
          if (snap->query_neighbors(dataset.points[probes[p]]) != want) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
          // The session-level const overload picks its own snapshot: the
          // answer must be ENTIRELY at one ε, never a mix.
          const auto direct =
              std::as_const(session).query_neighbors(dataset.points[probes[p]]);
          if (direct != want1[p] && direct != want2[p]) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
          reads.fetch_add(1, std::memory_order_relaxed);
          p = (p + 1) % probes.size();
        }
      });
    }

    // Writer: retarget ε back and forth.  Every retarget that finds its
    // structure aliased by a snapshot swaps in a replacement.
    for (int i = 0; i < kWriterRetargets; ++i) {
      (void)session.run(i % 2 == 0 ? eps2 : eps1, 5);
    }
    done.store(true, std::memory_order_relaxed);
    for (auto& t : readers) t.join();

    EXPECT_EQ(torn.load(), 0u) << index::to_string(kind);
    EXPECT_EQ(bad_eps.load(), 0u) << index::to_string(kind);
    EXPECT_GT(reads.load(), 0u) << index::to_string(kind);

    // The hammer must not have corrupted the session: a final clustering
    // still matches a fresh one.
    const ClusterResult& after = session.run(eps1, 5);
    Clusterer oracle(dataset.points,
                     Options().with_backend(kind).with_threads(1));
    const ClusterResult& fresh = oracle.run(eps1, 5);
    EXPECT_EQ(after.labels, fresh.labels) << index::to_string(kind);
    EXPECT_EQ(after.cluster_count, fresh.cluster_count)
        << index::to_string(kind);
  }
}

TEST(ServingConcurrent, ColdSnapshotRaceYieldsOneSharedSnapshot) {
  // Many threads racing through the create-on-first-access slow path must
  // all come back with the SAME published snapshot (double-checked lock).
  const auto dataset = data::taxi_gps(500, 88);
  Clusterer session(dataset.points, Options().with_threads(1));
  (void)session.run(0.3f, 5);

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const IndexSnapshot>> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      got[static_cast<std::size_t>(t)] = session.snapshot();
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)].get(), got[0].get());
  }
}

TEST(ServingConcurrent, ConcurrentBatchesDuringSweep) {
  // sweep() is a writer that retargets the index twice per call here — to
  // the ladder's ε_max, then back to its last ε; batched const readers
  // running concurrently must see coherent ladder-ε answers.
  const auto dataset = data::taxi_gps(700, 89);
  const std::vector<float> ladder = {0.2f, 0.45f, 0.3f};
  Clusterer session(dataset.points,
                    Options().with_backend(IndexKind::kBvhRt).with_threads(1));
  (void)session.run(ladder.front(), 5);

  std::vector<Vec3> centers(dataset.points.begin(),
                            dataset.points.begin() + 64);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> batches{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      BatchQueryResult batch;
      while (!done.load(std::memory_order_relaxed)) {
        const auto snap = session.snapshot();
        // Query at the snapshot's own ε: legal on every backend, and the
        // oracle is recomputable from eps() afterwards.
        const float se = snap->eps();
        snap->query_batch_into(centers, se, /*threads=*/1, batch);
        for (std::size_t q = 0; q < centers.size(); q += 13) {
          const auto got = batch.neighbors_of(q);
          const auto want =
              brute_neighbors(dataset.points, centers[q], se, index::kNoSelf);
          if (got.size() != want.size() ||
              !std::equal(got.begin(), got.end(), want.begin())) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
        batches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int i = 0; i < 8; ++i) {
    const auto curve = session.sweep(ladder, 5);
    ASSERT_EQ(curve.size(), ladder.size());
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(batches.load(), 0u);
}

TEST(ServingConcurrent, ReadersHammerSnapshotsDuringLiveMutations) {
  // Writer streams insert()/remove() batches while reader threads hammer
  // snapshot queries.  Every snapshot is an EPOCH: its size must be one of
  // the writer's published point counts, and every answer must be
  // geometrically valid against the snapshot's own points — a torn
  // structure (mid-mutation index, relocated storage) yields out-of-range
  // ids or neighbors outside ε.  Every write runs under snapshots the
  // readers hold, so the tree backends absorb it into a cloned version;
  // the writer appends enough points that the delta tail is re-indexed
  // (its own tree, rebuilt past DeltaTail::kResidue) while readers still
  // query older versions, and one budget rebuild happens mid-stream.  Run
  // under the `tsan` preset for the data-race leg.
  const auto dataset = data::taxi_gps(3000, 88);
  const float eps = 0.25f;
  constexpr int kReaders = 4;
  constexpr int kWriterBatches = 120;
  constexpr std::size_t kBatch = 5;
  const auto extra = data::taxi_gps(kWriterBatches * kBatch, 89);
  // One fixed probe in the base set, one on a point the writer appends.
  const std::array<Vec3, 2> probes = {
      Vec3{0.5f, 0.5f, 0.0f}, extra.points[kWriterBatches * kBatch / 2]};

  std::vector<std::size_t> valid_sizes;
  for (int b = 0; b <= kWriterBatches; ++b) {
    valid_sizes.push_back(dataset.size() + static_cast<std::size_t>(b) * kBatch);
  }

  for (const IndexKind kind :
       {IndexKind::kBvhRt, IndexKind::kPointBvh, IndexKind::kGrid}) {
    Clusterer session(dataset.points,
                      Options().with_backend(kind).with_threads(1));
    (void)session.run(eps, 5);

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> torn{0};

    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&] {
        const float eps2 = eps * eps;
        while (!done.load(std::memory_order_relaxed)) {
          const auto snap = session.snapshot();
          if (std::find(valid_sizes.begin(), valid_sizes.end(),
                        snap->size()) == valid_sizes.end()) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
          const std::span<const Vec3> pts = snap->points();
          for (const Vec3& probe : probes) {
            const auto ids = snap->query_neighbors(probe);
            std::uint32_t prev = 0;
            bool first = true;
            for (const std::uint32_t j : ids) {
              const bool in_range = j < pts.size();
              const bool in_ball =
                  in_range && geom::distance_squared(probe, pts[j]) <= eps2;
              const bool ascending = first || j > prev;
              if (!in_range || !in_ball || !ascending) {
                torn.fetch_add(1, std::memory_order_relaxed);
                break;
              }
              prev = j;
              first = false;
            }
          }
          reads.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    // Writer: stream inserts, with a removal wave every fourth batch.
    std::uint32_t next_removal = 3;
    for (int b = 0; b < kWriterBatches; ++b) {
      (void)session.insert(
          std::span<const Vec3>(extra.points)
              .subspan(static_cast<std::size_t>(b) * kBatch, kBatch));
      if (b % 4 == 3) {
        std::vector<std::uint32_t> ids;
        while (ids.size() < 3) {
          if (session.is_live(next_removal)) ids.push_back(next_removal);
          next_removal += 7;
        }
        session.remove(ids);
      }
    }
    // Small batches repair in microseconds, so the writer can finish all
    // its batches before a reader thread even starts.  Keep serving the
    // final snapshot until every reader got at least one read in.
    while (reads.load(std::memory_order_relaxed) <
           static_cast<std::uint64_t>(kReaders)) {
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_relaxed);
    for (auto& t : readers) t.join();

    EXPECT_EQ(torn.load(), 0u) << index::to_string(kind);
    EXPECT_GT(reads.load(), 0u) << index::to_string(kind);

    // The hammer must not have corrupted the session: the maintained
    // neighbor counts still match a brute count over the live set.
    const ClusterResult& r = session.result();
    const float eps2 = eps * eps;
    for (const std::uint32_t q : {0u, 1500u, 2999u, 3020u, 3400u}) {
      if (!session.is_live(q)) continue;
      std::uint32_t want = 0;
      for (std::uint32_t j = 0; j < session.size(); ++j) {
        if (j != q && session.is_live(j) &&
            geom::distance_squared(session.points()[q],
                                   session.points()[j]) <= eps2) {
          ++want;
        }
      }
      EXPECT_EQ(r.neighbor_counts[q], want)
          << index::to_string(kind) << " slot " << q;
    }
  }
}

TEST(ServingConcurrent, SnapshotPointsStayIntactWhileFaultingInsertsRollBack) {
  // Soak of the point buffer's rollback rule.  Every third insert fails in
  // its count stage, after its points were appended; a reader may already
  // have published a snapshot of that longer prefix, so the writer's next
  // append must not overwrite it.  Reader threads copy each snapshot's
  // points and re-check them while the writer keeps going.  Run under the
  // `tsan` preset for the data-race leg.
  const auto dataset = data::taxi_gps(2000, 95);
  constexpr int kReaders = 3;
  constexpr int kWriterBatches = 60;
  constexpr std::size_t kBatch = 4;
  const auto extra = data::taxi_gps(kWriterBatches * kBatch, 96);
  Clusterer session(dataset.points,
                    Options().with_backend(IndexKind::kBvhRt).with_threads(1));
  (void)session.run(0.25f, 5);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> attempts{0};
  std::atomic<int> started{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      started.fetch_add(1, std::memory_order_relaxed);
      while (!done.load(std::memory_order_relaxed)) {
        std::shared_ptr<const IndexSnapshot> snap;
        try {
          snap = session.snapshot();
        } catch (const std::logic_error&) {
          // A rolled-back insert drops the index it had mutated; the
          // writer's next call rebuilds it.  Retry.
          std::this_thread::yield();
          continue;
        }
        const std::span<const Vec3> pts = snap->points();
        const std::vector<Vec3> copy(pts.begin(), pts.end());
        if (std::memcmp(pts.data(), dataset.points.data(),
                        dataset.size() * sizeof(Vec3)) != 0) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
        // Hold the snapshot across the writer's next two attempts, so a
        // snapshot of a rolled-back prefix sees the append that follows.
        const std::uint64_t seen = attempts.load(std::memory_order_acquire);
        while (attempts.load(std::memory_order_acquire) < seen + 2 &&
               !done.load(std::memory_order_relaxed)) {
          std::this_thread::yield();
        }
        if (std::memcmp(pts.data(), copy.data(),
                        copy.size() * sizeof(Vec3)) != 0) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  while (started.load(std::memory_order_relaxed) < kReaders) {
    std::this_thread::yield();
  }
  fail::disarm_all();
  fail::arm("engine.phase1_insert",
            {.action = fail::Action::kThrowError,
             .trigger = fail::Trigger::kEveryNth,
             .n = 3});
  std::size_t committed = 0;
  int faults = 0;
  for (int b = 0; b < kWriterBatches; ++b) {
    try {
      (void)session.insert(
          std::span<const Vec3>(extra.points)
              .subspan(static_cast<std::size_t>(b) * kBatch, kBatch));
      committed += kBatch;
    } catch (const std::runtime_error&) {
      ++faults;
    }
    attempts.fetch_add(1, std::memory_order_release);
  }
  fail::disarm_all();
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(faults, kWriterBatches / 3);
  EXPECT_EQ(session.health(), SessionHealth::kHealthy);
  EXPECT_EQ(session.size(), dataset.size() + committed);
  EXPECT_TRUE(session.validate(ValidationLevel::kCounts));
}

}  // namespace
}  // namespace rtd
