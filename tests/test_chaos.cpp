// Chaos soak for fault injection (common/failpoint.hpp): a seeded
// randomized mutation stream with a fault injected at every stage of the
// table (common/stage.hpp) in turn, on every point backend.  After EVERY
// fault the session must be either STATE-IDENTICAL to the pre-call
// observable state (strong guarantee) or kDegraded and healed by the next
// writer call — and validate(kDeep), which includes full oracle parity,
// must come back clean.  A snapshot held across the faults must keep
// answering queries consistently (readers are never torn), and is itself
// the reader that takes the reader-side faults.
// Run it under the asan and tsan presets for the sanitizer legs (CI job
// `instrumentation`).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "common/stage.hpp"
#include "core/clusterer.hpp"
#include "core/index_snapshot.hpp"
#include "data/generators.hpp"
#include "index/index_kind.hpp"

namespace rtd {
namespace {

using geom::Vec3;
using index::IndexKind;

/// Everything a caller can observe about a session's writer-side state:
/// captured before a faulted call, compared after a strong-guarantee throw.
struct ObservableState {
  std::size_t n = 0;
  std::size_t live = 0;
  float eps = 0.0f;
  std::uint32_t min_pts = 0;
  std::uint32_t cluster_count = 0;
  std::vector<std::int32_t> labels;
  std::vector<std::uint8_t> is_core;
  std::vector<std::uint32_t> neighbor_counts;
  std::vector<std::uint8_t> live_mask;
};

ObservableState capture(const Clusterer& s) {
  ObservableState o;
  o.n = s.size();
  o.live = s.live_count();
  const ClusterResult& r = s.result();
  o.eps = r.eps;
  o.min_pts = r.min_pts;
  o.cluster_count = r.cluster_count;
  o.labels = r.labels;
  o.is_core = r.is_core;
  o.neighbor_counts = r.neighbor_counts;
  o.live_mask.resize(o.n);
  for (std::uint32_t i = 0; i < o.n; ++i) o.live_mask[i] = s.is_live(i);
  return o;
}

void expect_state_identical(const Clusterer& s, const ObservableState& o,
                            const std::string& what) {
  ASSERT_EQ(s.size(), o.n) << what;
  EXPECT_EQ(s.live_count(), o.live) << what;
  const ClusterResult& r = s.result();
  EXPECT_EQ(r.eps, o.eps) << what;
  EXPECT_EQ(r.min_pts, o.min_pts) << what;
  EXPECT_EQ(r.cluster_count, o.cluster_count) << what;
  EXPECT_EQ(r.labels, o.labels) << what;
  EXPECT_EQ(r.is_core, o.is_core) << what;
  EXPECT_EQ(r.neighbor_counts, o.neighbor_counts) << what;
  for (std::uint32_t i = 0; i < o.n; ++i) {
    ASSERT_EQ(s.is_live(i), o.live_mask[i] != 0) << what << " slot " << i;
  }
}

void expect_valid(const Clusterer& s, ValidationLevel level,
                  const std::string& what) {
  const ValidationReport rep = s.validate(level);
  EXPECT_TRUE(rep.ok) << what << ": "
                      << (rep.issues.empty() ? "(no issues)"
                                             : rep.issues.front());
}

std::vector<Vec3> cluster_batch(Rng& rng, std::size_t k) {
  std::vector<Vec3> batch;
  const float cx = rng.uniformf(0.0f, 10.0f);
  const float cy = rng.uniformf(0.0f, 10.0f);
  for (std::size_t p = 0; p < k; ++p) {
    batch.push_back({cx + rng.uniformf(-0.4f, 0.4f),
                     cy + rng.uniformf(-0.4f, 0.4f), 0.0f});
  }
  return batch;
}

std::vector<std::uint32_t> random_live_ids(Rng& rng, const Clusterer& s,
                                           std::size_t want) {
  std::vector<std::uint32_t> ids;
  want = std::min(want, s.live_count() > 1 ? s.live_count() - 1 : 0);
  while (ids.size() < want) {
    const auto id = static_cast<std::uint32_t>(rng.below(s.size()));
    if (s.is_live(id) &&
        std::find(ids.begin(), ids.end(), id) == ids.end()) {
      ids.push_back(id);
    }
  }
  return ids;
}

/// One randomized clean mutation (never faulted) to keep the stream moving.
// CHAOS_DEBUG=1 narrates every step and deep-validates after the clean
// mutations too, pinning a reported corruption to the op that introduced it
// (deep validation is O(live²), so it stays opt-in).
bool chaos_debug() { return ::getenv("CHAOS_DEBUG") != nullptr; }

void clean_step(Clusterer& s, Rng& rng, float eps, std::uint32_t min_pts) {
  const std::uint64_t dice = rng.below(4);
  if (chaos_debug()) {
    std::fprintf(stderr, "clean dice=%llu live=%zu\n",
                 static_cast<unsigned long long>(dice), s.live_count());
  }
  if (dice == 0) {
    (void)s.insert(cluster_batch(rng, 1 + rng.below(12)));
  } else if (dice == 1 && s.live_count() > 8) {
    s.remove(random_live_ids(rng, s, 1 + rng.below(6)));
  } else if (dice == 2) {
    (void)s.advance(cluster_batch(rng, 1 + rng.below(8)),
                    rng.below(std::min<std::uint64_t>(6, s.live_count())));
  } else {
    (void)s.run(eps, min_pts);
  }
}

/// The operation that reaches `site`, with the fault armed by the caller:
/// a writer call on `s`, or a read on the held snapshot `reader`.  Returns
/// true if the op threw.
bool faulted_op(Clusterer& s, const IndexSnapshot& reader, Rng& rng,
                const std::string& site, float& eps, std::uint32_t min_pts) {
  try {
    if (site == "dsu.grow" || site == "engine.phase1" ||
        site == "engine.phase2" || site == "index.refit" ||
        site == "session.run") {
      // A fresh ε forces a refit, a full recount + merge; dsu.grow needs n
      // to have grown since the last finish_run, which the clean steps
      // provide.
      eps = rng.uniformf(0.25f, 0.45f);
      (void)s.run(eps, min_pts);
    } else if (site == "engine.phase1_insert" || site == "index.insert" ||
               site == "repair.union" || site == "repair.relabel" ||
               site == "session.insert" || site == "session.repair") {
      (void)s.insert(cluster_batch(rng, 2 + rng.below(10)));
    } else if (site == "engine.phase1_remove" || site == "index.remove" ||
               site == "repair.split" || site == "repair.border" ||
               site == "session.remove") {
      s.remove(random_live_ids(rng, s, 2 + rng.below(6)));
    } else if (site == "session.advance") {
      (void)s.advance(cluster_batch(rng, 1 + rng.below(8)),
                      rng.below(std::min<std::uint64_t>(6, s.live_count())));
    } else if (site == "index.build" || site == "index.compacted_rebuild") {
      // A batch past the rebuild threshold forces a fresh build; with
      // tombstones around (the clean removals guarantee some) the build
      // goes through the CompactedIndex path.
      (void)s.insert(cluster_batch(rng, 70));
    } else if (site == "index.clone") {
      // A snapshot holds the current index, so absorbing a removal first
      // clones it (on every backend — grid/dense-box rebuild for inserts).
      (void)s.snapshot();
      s.remove(random_live_ids(rng, s, 1));
    } else if (site == "session.publish") {
      (void)s.snapshot();
    } else if (site == "session.sweep" || site == "sweep.scratch") {
      const std::vector<float> ladder{eps * 0.8f, eps, eps * 1.2f};
      (void)s.sweep(ladder, min_pts);
    } else if (site == "snapshot.query_batch") {
      (void)reader.query_batch(reader.points().subspan(0, 16), reader.eps(),
                               /*threads=*/1);
    } else {
      ADD_FAILURE() << "chaos soak has no op for site " << site;
    }
  } catch (...) {
    return true;
  }
  return false;
}

void chaos_soak(IndexKind kind) {
  fail::disarm_all();
  Rng rng(0xC4A05 + static_cast<std::uint64_t>(kind));
  const auto base = data::taxi_gps(400, 31);
  Clusterer session(base.points, Options().with_backend(kind));
  float eps = 0.3f;
  const std::uint32_t min_pts = 5;
  (void)session.run(eps, min_pts);

  // A long-held reader: taken once, queried after every fault.  It must
  // keep answering against ITS frozen dataset no matter what faults tear
  // through the writer.
  const auto held = session.snapshot();
  const std::size_t held_n = held->size();

  const std::vector<std::string>& sites = stage::all_sites();
  // Fire counts are process-wide: count this soak's from here.
  std::vector<std::uint64_t> fired_before;
  for (const std::string& site : sites) {
    fired_before.push_back(fail::fire_count(site));
  }
  std::size_t steps = 0;
  const int kCycles = 7;  // 7 × 23 stages × (clean + faulted) ≥ 200 steps
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (std::size_t si = 0; si < sites.size(); ++si) {
      const std::string& site = sites[si];
      const std::string what =
          std::string(index::to_string(kind)) + "/" + site + "/cycle " +
          std::to_string(cycle);

      // Keep the stream randomized between faults.
      if (chaos_debug()) std::fprintf(stderr, "-- %s\n", what.c_str());
      clean_step(session, rng, eps, min_pts);
      ++steps;
      expect_valid(session,
                   chaos_debug() ? ValidationLevel::kDeep
                                 : ValidationLevel::kQuick,
                   what + " (clean)");
      if (::testing::Test::HasFailure()) return;

      // Cycle through the fault actions; decline only where an operation
      // can report failure (the declinable try_* sites).
      fail::Config cfg;
      const bool declinable = site == "index.insert" ||
                              site == "index.remove" ||
                              site == "index.refit";
      const int flavor = (cycle + static_cast<int>(si)) % 3;
      if (flavor == 0) {
        cfg.action = fail::Action::kThrowBadAlloc;
      } else if (flavor == 1 || !declinable) {
        cfg.action = fail::Action::kThrowError;
      } else {
        cfg.action = fail::Action::kDecline;
      }

      const ObservableState before = capture(session);
      fail::arm(site, cfg);
      const bool threw = faulted_op(session, *held, rng, site, eps, min_pts);
      fail::disarm_all();
      ++steps;

      if (threw) {
        if (session.health() == SessionHealth::kHealthy) {
          // Strong guarantee: nothing observable moved.
          expect_state_identical(session, before, what + " (strong)");
        } else {
          // Degraded: the bookkeeping must still be sound, and the next
          // writer call must heal back to a coherent clustering.
          expect_valid(session, ValidationLevel::kQuick,
                       what + " (degraded)");
          EXPECT_THROW((void)session.result(), std::logic_error) << what;
          (void)session.run(eps, min_pts);  // heal
          ++steps;
          EXPECT_EQ(session.health(), SessionHealth::kHealthy) << what;
        }
      }
      expect_valid(session, ValidationLevel::kDeep, what + " (post-fault)");

      // The held reader is never torn: same frozen dataset, ids in range.
      const auto ids =
          held->query_neighbors(held->points()[steps % held_n]);
      for (const std::uint32_t id : ids) {
        ASSERT_LT(id, held_n) << what << " (held snapshot)";
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GE(steps, 200u) << "soak shorter than the contract";

  // Cumulative coverage: every registered site actually fired at least one
  // fault somewhere in the soak — except the insert and ε-retarget sites
  // on grid/dense-box, which the session never calls there: it knows they
  // decline (NeighborIndex::refittable) and rebuilds straight away.
  const bool refittable = kind != IndexKind::kGrid &&
                          kind != IndexKind::kDenseBox;
  for (std::size_t si = 0; si < sites.size(); ++si) {
    const std::string& site = sites[si];
    const std::uint64_t fired = fail::fire_count(site) - fired_before[si];
    if (!refittable && (site == "index.insert" || site == "index.refit")) {
      EXPECT_EQ(fired, 0u)
          << index::to_string(kind) << ": site " << site << " was called";
    } else {
      EXPECT_GT(fired, 0u)
          << index::to_string(kind) << ": site " << site << " never fired";
    }
  }
}

TEST(ChaosSoak, BruteForce) { chaos_soak(IndexKind::kBruteForce); }
TEST(ChaosSoak, Grid) { chaos_soak(IndexKind::kGrid); }
TEST(ChaosSoak, DenseBox) { chaos_soak(IndexKind::kDenseBox); }
TEST(ChaosSoak, PointBvh) { chaos_soak(IndexKind::kPointBvh); }
TEST(ChaosSoak, BvhRt) { chaos_soak(IndexKind::kBvhRt); }
TEST(ChaosSoak, Triangles) { chaos_soak(IndexKind::kTriangles); }

// ---------------------------------------------------------------------------
// Concurrent readers while the writer faults (the tsan leg): reader threads
// snapshot and query continuously; the writer takes faults at the publish
// and mutation sites.  Readers may observe a thrown session.publish fault
// (snapshot() propagates it, nothing is published) — they retry; they must
// never crash, tear, or deadlock.
// ---------------------------------------------------------------------------

TEST(ChaosConcurrent, ReadersSurviveWriterFaults) {
  fail::disarm_all();
  const auto base = data::taxi_gps(300, 32);
  Clusterer session(base.points,
                    Options().with_backend(IndexKind::kPointBvh));
  (void)session.run(0.3f, 5);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(0x5EED + static_cast<std::uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          const auto snap = session.snapshot();
          const auto ids = snap->query_neighbors(
              snap->points()[rng.below(snap->size())]);
          for (const std::uint32_t id : ids) {
            if (id >= snap->size()) std::abort();  // torn snapshot
          }
          reads.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception&) {
          // An injected session.publish fault surfaced through this
          // reader's own snapshot() call — legal; retry.
        }
      }
    });
  }

  Rng rng(0xFA11);
  float eps = 0.3f;
  const std::vector<std::string> writer_sites{
      "session.publish", "engine.phase1_insert", "engine.phase1_remove",
      "repair.relabel", "index.insert"};
  for (int step = 0; step < 60; ++step) {
    fail::Config cfg;
    cfg.action = step % 2 == 0 ? fail::Action::kThrowError
                               : fail::Action::kThrowBadAlloc;
    fail::arm(writer_sites[static_cast<std::size_t>(step) %
                           writer_sites.size()],
              cfg);
    try {
      if (step % 3 == 0) {
        (void)session.insert(cluster_batch(rng, 4));
      } else if (step % 3 == 1 && session.live_count() > 8) {
        session.remove(random_live_ids(rng, session, 3));
      } else {
        (void)session.run(eps, 5);
      }
    } catch (...) {
      fail::disarm_all();
      if (session.health() == SessionHealth::kDegraded) {
        (void)session.run(eps, 5);  // heal before the next faulted step
      }
    }
    fail::disarm_all();
    const ValidationReport rep = session.validate(ValidationLevel::kQuick);
    EXPECT_TRUE(rep.ok) << (rep.issues.empty() ? "" : rep.issues.front());
  }
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_GT(reads.load(), 0u);
  expect_valid(session, ValidationLevel::kDeep, "concurrent epilogue");
}

}  // namespace
}  // namespace rtd
