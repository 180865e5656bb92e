// Exception-safety contracts of the session writer paths
// (docs/ARCHITECTURE.md, "Failure model").  The first half exercises the
// PRE-EXISTING error paths that need no fault injection (invalid arguments
// discovered late, take_result shells) and runs in every build; the second
// half uses the failpoint registry to force faults at specific sites and
// pins down which operations give the STRONG guarantee and which degrade
// then heal.
#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <stdexcept>
#include <vector>

#include "common/failpoint.hpp"
#include "core/clusterer.hpp"
#include "data/generators.hpp"
#include "dbscan/engine.hpp"
#include "dbscan/equivalence.hpp"
#include "index/index_kind.hpp"
#include "index/neighbor_index.hpp"

namespace rtd {
namespace {

using geom::Vec3;
using index::IndexKind;

dbscan::Clustering live_clustering(const Clusterer& s) {
  dbscan::Clustering c;
  const ClusterResult& r = s.result();
  for (std::uint32_t i = 0; i < s.size(); ++i) {
    if (!s.is_live(i)) continue;
    c.labels.push_back(r.labels[i]);
    c.is_core.push_back(r.is_core[i]);
  }
  c.cluster_count = r.cluster_count;
  return c;
}

std::vector<Vec3> live_points(const Clusterer& s) {
  std::vector<Vec3> pts;
  for (std::uint32_t i = 0; i < s.size(); ++i) {
    if (s.is_live(i)) pts.push_back(s.points()[i]);
  }
  return pts;
}

void expect_oracle_clean(const Clusterer& s, const char* what) {
  const ClusterResult& r = s.result();
  const dbscan::Params params{r.eps, r.min_pts, IndexKind::kAuto};
  const auto res =
      dbscan::check_valid(live_points(s), params, live_clustering(s));
  EXPECT_TRUE(res.equivalent) << what << ": " << res.reason;
}

// ---------------------------------------------------------------------------
// Always-on cases: invalid arguments discovered late must leave the session
// fully usable (strong guarantee through up-front validation).
// ---------------------------------------------------------------------------

TEST(ExceptionSafety, BadLadderValueMidSweepLeavesSessionRunnable) {
  const auto base = data::taxi_gps(300, 41);
  Clusterer session(base.points, Options());
  (void)session.run(0.3f, 5);
  const auto labels_before = session.result().labels;

  // The bad value sits LAST: a naive sweep would have clustered two good
  // entries before discovering it.  The ladder is validated up front, so
  // nothing runs and nothing is torn.
  const std::vector<float> bad_ladder{0.25f, 0.35f, -1.0f};
  EXPECT_THROW((void)session.sweep(bad_ladder, 5), std::invalid_argument);
  EXPECT_EQ(session.health(), SessionHealth::kHealthy);
  EXPECT_EQ(session.result().labels, labels_before);
  EXPECT_TRUE(session.validate(ValidationLevel::kDeep).ok);

  // The session still runs, sweeps, and mutates.
  (void)session.run(0.32f, 5);
  (void)session.insert(std::vector<Vec3>{{1.0f, 1.0f, 0.0f}});
  expect_oracle_clean(session, "after rejected sweep");

  // take_result() hands over a well-formed result and a rerun restores
  // the streaming baseline.
  const ClusterResult taken = session.take_result();
  EXPECT_EQ(taken.labels.size(), session.size());
  EXPECT_EQ(taken.membership.cluster_count(), taken.cluster_count);
  EXPECT_THROW((void)session.result(), std::logic_error);
  (void)session.run(0.3f, 5);
  expect_oracle_clean(session, "after take_result rerun");
}

TEST(ExceptionSafety, InvalidMutationArgumentsAreStrong) {
  const auto base = data::taxi_gps(200, 42);
  Clusterer session(base.points, Options());
  (void)session.run(0.3f, 5);
  const auto labels_before = session.result().labels;

  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_THROW((void)session.insert(std::vector<Vec3>{{inf, 0.0f, 0.0f}}),
               std::invalid_argument);
  EXPECT_THROW(session.remove(std::vector<std::uint32_t>{9999}),
               std::invalid_argument);
  EXPECT_THROW(session.remove(std::vector<std::uint32_t>{1, 1}),
               std::invalid_argument);
  EXPECT_EQ(session.health(), SessionHealth::kHealthy);
  EXPECT_EQ(session.result().labels, labels_before);
  EXPECT_TRUE(session.validate(ValidationLevel::kDeep).ok);
}

// ---------------------------------------------------------------------------
// Fault-injected cases: specific sites, specific guarantees.
// ---------------------------------------------------------------------------

class FailpointGated : public ::testing::Test {
 protected:
  void SetUp() override { fail::disarm_all(); }
  void TearDown() override { fail::disarm_all(); }
};

TEST_F(FailpointGated, InsertCountFaultRollsBackStorageAndCounts) {
  const auto base = data::taxi_gps(200, 43);
  Clusterer session(base.points, Options());
  (void)session.run(0.3f, 5);
  const std::size_t n_before = session.size();
  const auto counts_before = session.result().neighbor_counts;

  fail::arm("engine.phase1_insert", {.action = fail::Action::kThrowBadAlloc});
  EXPECT_THROW(
      (void)session.insert(std::vector<Vec3>{{1.0f, 1.0f, 0.0f},
                                             {1.1f, 1.0f, 0.0f}}),
      std::bad_alloc);
  fail::disarm_all();

  // Strong: the absorbed points and their count updates are both gone.
  EXPECT_EQ(session.health(), SessionHealth::kHealthy);
  EXPECT_EQ(session.size(), n_before);
  EXPECT_EQ(session.result().neighbor_counts, counts_before);
  EXPECT_TRUE(session.validate(ValidationLevel::kDeep).ok);

  // And the session keeps streaming.
  (void)session.insert(std::vector<Vec3>{{1.0f, 1.0f, 0.0f}});
  expect_oracle_clean(session, "insert after rolled-back insert");
}

TEST_F(FailpointGated, RemovalCaptureFaultIsStrong) {
  const auto base = data::taxi_gps(200, 44);
  Clusterer session(base.points, Options());
  (void)session.run(0.3f, 5);
  const auto counts_before = session.result().neighbor_counts;

  fail::arm("engine.phase1_remove", {.action = fail::Action::kThrowError});
  EXPECT_THROW(session.remove(std::vector<std::uint32_t>{3, 7}),
               std::runtime_error);
  fail::disarm_all();

  EXPECT_EQ(session.health(), SessionHealth::kHealthy);
  EXPECT_TRUE(session.is_live(3));
  EXPECT_TRUE(session.is_live(7));
  EXPECT_EQ(session.result().neighbor_counts, counts_before);
  EXPECT_TRUE(session.validate(ValidationLevel::kDeep).ok);
  session.remove(std::vector<std::uint32_t>{3, 7});
  expect_oracle_clean(session, "remove after rolled-back remove");
}

TEST_F(FailpointGated, RepairFaultDegradesThenNextCallHeals) {
  // The relabel, and the touched-slot commit after it.
  for (const char* site : {"repair.relabel", "repair.commit"}) {
    const auto base = data::taxi_gps(200, 45);
    Clusterer session(base.points, Options());
    (void)session.run(0.3f, 5);

    fail::arm(site, {.action = fail::Action::kThrowError});
    EXPECT_THROW((void)session.insert(std::vector<Vec3>{{2.0f, 2.0f, 0.0f}}),
                 std::runtime_error)
        << site;
    fail::disarm_all();

    // Degraded: the batch is committed (the slot exists) but the labels
    // are torn — result() is gated off while the bookkeeping stays sound.
    EXPECT_EQ(session.health(), SessionHealth::kDegraded) << site;
    EXPECT_THROW((void)session.result(), std::logic_error) << site;
    EXPECT_TRUE(session.validate(ValidationLevel::kQuick).ok) << site;

    // The next writer call heals: here another mutation, which re-clusters
    // at the last requested parameters first and then applies its batch.
    (void)session.insert(std::vector<Vec3>{{2.1f, 2.0f, 0.0f}});
    EXPECT_EQ(session.health(), SessionHealth::kHealthy) << site;
    EXPECT_TRUE(session.validate(ValidationLevel::kDeep).ok) << site;
    expect_oracle_clean(session, site);
  }
}

TEST_F(FailpointGated, DeclinedAbsorptionFallsBackToRebuild) {
  const auto base = data::taxi_gps(200, 46);
  Clusterer session(base.points,
                    Options().with_backend(IndexKind::kPointBvh));
  (void)session.run(0.3f, 5);

  // Decline is not a fault: the index refuses the in-place absorb and the
  // session rebuilds — the mutation itself must succeed.
  fail::arm("index.insert", {.action = fail::Action::kDecline});
  (void)session.insert(std::vector<Vec3>{{1.0f, 1.0f, 0.0f}});
  fail::disarm_all();
  EXPECT_TRUE(session.result().stats.index_rebuilt);
  expect_oracle_clean(session, "declined insert absorb");

  fail::arm("index.refit", {.action = fail::Action::kDecline});
  (void)session.run(0.4f, 5);
  fail::disarm_all();
  EXPECT_TRUE(session.result().stats.index_rebuilt);
  expect_oracle_clean(session, "declined refit");
}

TEST_F(FailpointGated, MidSweepFaultLeavesPreviousResultIntact) {
  const auto base = data::taxi_gps(250, 47);
  Clusterer session(base.points, Options());
  const ClusterResult before = session.run(0.3f, 5);

  // The ladder's whole query work — the scratch sizing and the one fused
  // count-and-cluster launch — runs before any entry commits, so a fault
  // in either is strong: health, the result and the count cache stay
  // those of the previous run.
  const std::vector<float> ladder{0.25f, 0.35f, 0.45f};
  for (const char* site : {"sweep.scratch", "engine.fused"}) {
    fail::arm(site, {.action = fail::Action::kThrowError});
    EXPECT_THROW((void)session.sweep(ladder, 5), std::runtime_error) << site;
    fail::disarm_all();

    EXPECT_EQ(session.health(), SessionHealth::kHealthy) << site;
    EXPECT_TRUE(session.validate(ValidationLevel::kQuick).ok) << site;
    const ClusterResult& now = session.result();
    EXPECT_EQ(now.eps, before.eps) << site;
    EXPECT_EQ(now.labels, before.labels) << site;
    EXPECT_EQ(now.is_core, before.is_core) << site;
    EXPECT_EQ(now.neighbor_counts, before.neighbor_counts) << site;
    expect_oracle_clean(session, site);
  }

  // The session then sweeps the same ladder cleanly, mutates from its last
  // entry, and take_result() is well-formed.
  const auto results = session.sweep(ladder, 5);
  ASSERT_EQ(results.size(), ladder.size());
  expect_oracle_clean(session, "sweep after faulted sweeps");
  (void)session.insert(std::vector<Vec3>{{2.1f, 2.0f, 0.0f}});
  expect_oracle_clean(session, "insert after faulted sweeps");
  const ClusterResult taken = session.take_result();
  EXPECT_EQ(taken.eps, ladder.back());
  EXPECT_EQ(taken.membership.cluster_count(), taken.cluster_count);
}

TEST_F(FailpointGated, OneShotEngineLaunchFaultLeavesTheIndexReusable) {
  // Sessions count inside the fused launch; the one-shot engine
  // (cluster_with_index, behind rt_dbscan and fdbscan) still runs the
  // paper's counting and cluster-formation launches.  A fault at either
  // throws before its launch starts, and the next call over the same
  // index clusters correctly.
  const auto base = data::taxi_gps(300, 51);
  const dbscan::Params params{0.3f, 5, IndexKind::kAuto};
  const auto idx = index::make_index(base.points, params.eps);
  for (const char* site : {"engine.phase1", "engine.phase2"}) {
    const std::uint64_t fired = fail::fire_count(site);
    fail::arm(site, {.action = fail::Action::kThrowError});
    EXPECT_THROW((void)dbscan::cluster_with_index(*idx, params),
                 std::runtime_error)
        << site;
    EXPECT_EQ(fail::fire_count(site), fired + 1) << site;
    fail::disarm_all();
    const dbscan::IndexEngineResult again =
        dbscan::cluster_with_index(*idx, params);
    const auto res =
        dbscan::check_valid(base.points, params, again.clustering);
    EXPECT_TRUE(res.equivalent) << site << ": " << res.reason;
  }
}

TEST_F(FailpointGated, FusedLaunchFaultIsStrongPhaseTwoOverReusedCountsDegrades) {
  const auto base = data::taxi_gps(250, 49);
  const auto extra = data::taxi_gps(600, 50);
  std::span<const Vec3> add(extra.points);
  Clusterer session(base.points, Options());
  (void)session.run(0.3f, 5);

  // A run at a fresh ε resets the workspace (reallocating it once the
  // window outgrew it: dsu.grow) and runs the fused count-and-cluster
  // launch.  Both touch only scratch, so a fault in either is strong; the
  // count cache is dropped, and the next writer call rebuilds it.
  float eps = 0.3f;
  for (const char* site : {"dsu.grow", "engine.fused"}) {
    (void)session.insert(add.subspan(0, 300));  // outgrow the workspace
    add = add.subspan(300);
    const ClusterResult prior = session.result();
    eps += 0.05f;
    const std::uint64_t fired = fail::fire_count(site);
    fail::arm(site, {.action = fail::Action::kThrowError});
    EXPECT_THROW((void)session.run(eps, 5), std::runtime_error) << site;
    EXPECT_EQ(fail::fire_count(site), fired + 1) << site;
    fail::disarm_all();
    EXPECT_EQ(session.health(), SessionHealth::kHealthy) << site;
    const ClusterResult& now = session.result();
    EXPECT_EQ(now.eps, prior.eps) << site;
    EXPECT_EQ(now.labels, prior.labels) << site;
    EXPECT_EQ(now.is_core, prior.is_core) << site;
    EXPECT_EQ(now.neighbor_counts, prior.neighbor_counts) << site;
    EXPECT_FALSE(session.counts_cached()) << site;
    (void)session.run(eps, 5);
    expect_oracle_clean(session, site);
  }

  // Reused counts run phase 2 alone, while the result buffers are being
  // rewritten: a fault there degrades, and the next writer call heals.
  fail::arm("engine.phase2", {.action = fail::Action::kThrowError});
  EXPECT_THROW((void)session.run(eps, 7), std::runtime_error);
  fail::disarm_all();
  EXPECT_EQ(session.health(), SessionHealth::kDegraded);
  (void)session.insert(std::vector<Vec3>{{2.2f, 2.0f, 0.0f}});
  EXPECT_EQ(session.health(), SessionHealth::kHealthy);
  expect_oracle_clean(session, "phase 2 over reused counts");
}

TEST_F(FailpointGated, SnapshotPublishFaultLeavesReadersRetryable) {
  const auto base = data::taxi_gps(150, 48);
  Clusterer session(base.points, Options());
  (void)session.run(0.3f, 5);

  fail::arm("session.publish", {.action = fail::Action::kThrowBadAlloc});
  EXPECT_THROW((void)session.snapshot(), std::bad_alloc);
  fail::disarm_all();

  // Nothing was published; the session is untouched and the retry works.
  EXPECT_EQ(session.health(), SessionHealth::kHealthy);
  const auto snap = session.snapshot();
  EXPECT_EQ(snap->size(), session.size());
  EXPECT_TRUE(session.validate(ValidationLevel::kDeep).ok);
}

}  // namespace
}  // namespace rtd
