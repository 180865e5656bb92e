// rtd::Clusterer — the session-based public API.
//
// The paper's headline observation is that the neighbor-query substrate
// dominates DBSCAN's runtime, and its §VI-B workflow ("the user is expected
// to run DBSCAN multiple times with different parameter values") is exactly
// where an index can be amortized.  A Clusterer owns one dataset and one
// prebuilt NeighborIndex and reuses them across runs:
//
//   rtd::Clusterer session(points);              // or points + rtd::Options
//   rtd::ClusterResult a = session.run(/*eps=*/0.5f, /*min_pts=*/10);
//   rtd::ClusterResult b = session.run(0.5f, 20);  // phase 1 skipped
//   const rtd::ClusterResult& c = session.run(0.6f, 10);   // index REFIT
//   auto curve = session.sweep(eps_values, 10);  // per-eps results
//
//   (a and b are COPIES: run() returns a reference into session-owned
//   storage that the next run()/sweep() overwrites — copy results you
//   want to keep side by side, or bind a reference only to the latest.)
//
// Lifecycle per run(eps, min_pts):
//   * the backend is fixed when the session is constructed (kAuto is
//     kBvhRt, the paper's RT pipeline); the first run builds the index;
//   * an eps change REFITS the index in place where the backend supports it
//     (NeighborIndex::try_set_eps: kBvhRt refits the sphere scene,
//     kTriangles rescales its tessellation, kPointBvh and kBruteForce are
//     radius-agnostic) and rebuilds only where it cannot (kGrid /
//     kDenseBox re-bin their cells);
//   * counting at a new eps also forms the clusters, in one launch that
//     walks every point once (dbscan::index_count_cluster);
//   * a min_pts-only change reuses the cached neighbor counts and pays just
//     the cluster-formation phase (§VI-B).
// Which of those paths a run took is recorded in ClusterResult::stats.
//
// run() returns a reference to session-owned storage: the result is valid
// until the next run()/sweep() or the session's destruction — copy it
// (ClusterResult is a regular value type) to keep it.  On every backend,
// warm run() calls reuse every internal buffer and perform no heap
// allocations (tests/test_query_alloc.cpp enforces this).
//
// Live sessions (streaming / incremental maintenance):
//   * insert(points) appends new points, remove(ids) tombstones existing
//     ones, advance(points, expire) does both in sliding-window form.  Each
//     mutation keeps the session's LAST clustering current incrementally:
//     the spatial index absorbs the batch where its contract allows
//     (delta-tail inserts and masked removals on the tree backends, with
//     amortized refits; grid/dense-box rebuild — they cannot absorb
//     inserts), neighbor counts are maintained with one ε-query per mutated
//     point, and labels are repaired by re-unioning only the affected
//     ε-neighborhoods through a miniature phase 2, at a cost that follows
//     the repair set, not the session size.  result() is the maintained
//     clustering, identical (up to border ambiguity) to a from-scratch run
//     at the same parameters — tests/test_incremental.cpp enforces parity
//     after every mutation.
//   * Cluster ids are stable and stay dense in [0, cluster_count): a
//     cluster the repair does not touch keeps its id; a merged cluster
//     keeps the id of its larger side; new clusters and splinters take
//     freed ids first; and when a mutation frees ids, the highest ids move
//     down into the holes (relabelling one cluster per hole — the only way
//     an untouched cluster's id changes).
//   * Ids are SLOT ids and stay stable across mutations: removed points
//     keep their slot, labeled kNoise with is_core 0 and neighbor count 0
//     (they also remain in the result's noise bucket — filter with
//     is_live()).  size() counts all slots; live_count() the survivors.
//   * Mutations are WRITER operations (same column as run() in the
//     thread-safety table).  Concurrent readers are never torn: a mutation
//     unpublishes the current snapshot and mutates an index no snapshot
//     holds — a clone of the held one if need be; readers holding the old
//     snapshot keep the pre-mutation index version alive, and their own
//     prefix of the point buffer: appends write past every snapshot's
//     length, in place while capacity lasts, and a buffer that must grow
//     is copied into a new one the old holders keep alive.
//
// The one-shot rtd::cluster() free function (core/api.hpp) is a thin
// wrapper over a throwaway session; existing callers are unaffected.
//
// Thread-safety contract (docs/ARCHITECTURE.md has the full table):
//   * run()/sweep()/take_result() and the eps-taking query_neighbors
//     overloads are WRITER operations — one thread at a time.
//   * snapshot(), the const query_neighbors overloads and query_batch are
//     READER operations: safe from any number of threads, concurrently
//     with each other AND with a writer retargeting ε.  They serve an
//     immutable IndexSnapshot published behind an atomic shared_ptr — the
//     steady-state read path is one atomic load, no locks.
//   * The writer never mutates an index a snapshot aliases: retargeting ε
//     while snapshots exist clones the index (a new version sharing the
//     built trees), refits the clone and drops the session's reference to
//     the old version; readers holding the old snapshot finish at the old
//     ε and that version is reclaimed when the last one releases it
//     (shared_ptr-epoch reclamation).  Results are never torn.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/index_snapshot.hpp"
#include "core/kdist.hpp"
#include "core/membership.hpp"
#include "core/rt_knn.hpp"
#include "dbscan/core.hpp"
#include "dsu/atomic_disjoint_set.hpp"
#include "index/neighbor_index.hpp"
#include "telemetry/telemetry.hpp"

namespace rtd {

/// Noise label in ClusterResult::labels.
inline constexpr std::int32_t kNoise = dbscan::kNoiseLabel;

/// Session configuration: a fluent builder consumed by rtd::Clusterer.
///
///   rtd::Options().with_backend(rtd::index::IndexKind::kBvhRt)
///                 .with_threads(4)
///
/// The query launch order is not an option: every full query pass (run()'s
/// two phases, sweep()'s counting and cluster-formation launches) launches
/// in Morton order of the points, so neighboring queries walk the same
/// subtrees back to back (RTNN-style launch coherence).
struct Options {
  /// Neighbor-index backend answering the ε-queries.  kAuto resolves to
  /// kBvhRt, the paper's RT pipeline, when the session is constructed; the
  /// backend stays fixed for the session's lifetime.
  index::IndexKind backend = index::IndexKind::kAuto;
  /// Icosphere subdivision level for the kTriangles backend (20 * 4^s
  /// triangles/point).
  int triangle_subdivisions = 1;
  /// Thread count of every launch the session makes: index builds and
  /// refits, the launch-order sort and the query launches.  0 means
  /// omp_get_max_threads() and 1 runs inline on the caller; the session
  /// never changes OpenMP's own setting.
  int threads = 0;

  Options& with_backend(index::IndexKind k) { backend = k; return *this; }
  Options& with_triangle_subdivisions(int s) {
    triangle_subdivisions = s;
    return *this;
  }
  Options& with_threads(int t) { threads = t; return *this; }
};

/// What one run() actually did and what it cost, per phase.
struct RunStats {
  /// The session's concrete backend (never kAuto in a run's stats).
  index::IndexKind backend = index::IndexKind::kAuto;
  /// This run built the index from scratch (first run, or an eps change on
  /// a backend whose try_set_eps cannot refit).
  bool index_rebuilt = false;
  /// This run refit the existing index in place (eps change on a
  /// refit-capable backend) — the cheap §VI-B path.  In a sweep, the first
  /// entry reports the step to the ladder's ε_max (build or refit) and the
  /// last entry the final retarget to its own ε (a refit, or a rebuild
  /// where the refit declined); no other entry touches the index.  Never
  /// set together with index_rebuilt.
  bool index_refitted = false;
  /// Phase 1 was skipped: neighbor counts cached by an earlier run at this
  /// eps were reused (min_pts-only rerun).
  bool counts_reused = false;
  /// The result was updated IN PLACE by insert()/remove()/advance() instead
  /// of a full run: phase1/phase2 and the timings cover only the LAST
  /// mutation's maintenance work (per-mutated-point count queries and the
  /// localized label repair, which reads an inserted point's neighbors
  /// from its count query, so phase2 counts no ray for inserted points).
  /// index_rebuilt reports whether that mutation crossed the rebuild
  /// threshold (or hit a backend that cannot absorb the batch) and rebuilt
  /// the index over the live set.
  bool incremental = false;
  /// Per-phase wall clock.  index_build_seconds is the build OR refit cost
  /// this run paid (0 when the index was reused as-is).  A run (or sweep
  /// entry 0) that counted afresh forms its clusters inside that counting
  /// launch (dbscan::index_count_cluster): core_phase_seconds is that whole
  /// launch and cluster_phase_seconds is 0.
  dbscan::PhaseTimings timings;
  /// Work counters of the query launches (rays, node visits, Intersection
  /// calls) — zeroed for a phase that did not run.  After a fused launch,
  /// phase1 is the launch (its work equals a count-only phase 1 over the
  /// same index) and phase2 holds only the second walks of packets whose
  /// neighbor pairs overflowed the launch's fixed buffer (its seconds stay
  /// 0).  A run that reused its counts runs the paper's separate phase 2,
  /// reported here as before.
  rt::LaunchStats phase1;
  rt::LaunchStats phase2;
};

/// Result of one clustering run.
///
/// A regular owning value type.  Clusterer::run() returns a const reference
/// to session-owned storage (copy to keep); sweep() and rtd::cluster()
/// return independent copies.
struct ClusterResult {
  /// Cluster id per point in [0, cluster_count), or kNoise.
  std::vector<std::int32_t> labels;
  /// Core flag per point (deterministic given eps/min_pts).
  std::vector<std::uint8_t> is_core;
  /// Number of clusters found; every id below it is used.
  std::uint32_t cluster_count = 0;
  /// Wall-clock seconds of the call that produced this result (index
  /// build/refit included when this run paid it).
  double seconds = 0.0;

  /// The parameters this result was computed for.
  float eps = 0.0f;
  std::uint32_t min_pts = 0;
  /// What the run did (refit vs rebuild, counts reuse, resolved backend)
  /// and what each phase cost.
  RunStats stats;
  /// Exact ε-neighbor count per point, excluding self.
  std::vector<std::uint32_t> neighbor_counts;

  /// Member lists: dataset indices grouped by cluster id, plus the noise
  /// points (core/membership.hpp).  members_of()/noise() are views into
  /// it.  A mutation edits the lists in place, so the order WITHIN a group
  /// is unspecified — sort a view when you need ascending ids.
  Membership membership;

  [[nodiscard]] std::size_t size() const { return labels.size(); }

  /// Dataset indices of cluster `id`, in unspecified order; empty for
  /// out-of-range ids.
  [[nodiscard]] std::span<const std::uint32_t> members_of(
      std::int32_t id) const {
    return membership.members_of(id);
  }

  /// Dataset indices of the noise points, in unspecified order (removed
  /// slots of a live session included).
  [[nodiscard]] std::span<const std::uint32_t> noise() const {
    return membership.noise();
  }

  [[nodiscard]] std::size_t noise_count() const { return noise().size(); }

  [[nodiscard]] std::size_t core_count() const {
    std::size_t c = 0;
    for (const auto f : is_core) c += f;
    return c;
  }

  [[nodiscard]] std::size_t border_count() const {
    return size() - core_count() - noise_count();
  }

  /// Copy into the dbscan::Clustering shape the equivalence tooling and the
  /// baseline implementations speak.
  [[nodiscard]] dbscan::Clustering to_clustering() const {
    dbscan::Clustering c;
    c.labels = labels;
    c.is_core = is_core;
    c.cluster_count = cluster_count;
    c.timings = stats.timings;
    return c;
  }
};

/// Writer-side health of a session (docs/ARCHITECTURE.md, "Failure model").
///
/// Every writer operation is transactional: a throw either restores the
/// pre-call observable state (STRONG — validation failures, index build /
/// refit / absorption faults, count-maintenance faults) or, where the
/// result buffers were already partially overwritten (label repair, phase-2
/// finalization, the copy of a sweep's last entry into the result), leaves
/// the session kDegraded: the
/// points, liveness mask and neighbor counts are committed and coherent,
/// but the labels are torn and result() is unavailable.  The NEXT writer
/// call heals a degraded session by a full re-cluster at the last requested
/// parameters (run()/sweep() do so by their nature; mutations re-cluster
/// first, then apply).  Readers are unaffected throughout: snapshots
/// published before the fault stay valid and consistent.
enum class SessionHealth : std::uint8_t {
  kHealthy,   ///< result() (if current) is coherent with the session state
  kDegraded,  ///< a fault tore the result buffers; next writer call heals
};

/// How deep validate() audits the session (cost grows with the level).
enum class ValidationLevel : std::uint8_t {
  /// O(n) structural invariants: mask/result/count buffer agreement, label
  /// ranges, membership coverage (every slot once, in its label's group),
  /// dead-slot hygiene, core-flag consistency with the cached counts.
  kQuick,
  /// kQuick + an exact neighbor recount of every live point against the raw
  /// coordinates (O(n_live²) — no index involved, so it also cross-checks
  /// the index-maintained counts).
  kCounts,
  /// kCounts + full oracle parity: the live sub-dataset must form a valid
  /// DBSCAN clustering at (eps, min_pts) per dbscan::check_valid.
  kDeep,
};

/// validate()'s findings.  Converts to true when no issue was found.
struct ValidationReport {
  bool ok = true;
  SessionHealth health = SessionHealth::kHealthy;
  ValidationLevel level = ValidationLevel::kQuick;
  /// One human-readable line per violated invariant, empty when ok.
  std::vector<std::string> issues;

  explicit operator bool() const { return ok; }
};

/// Multi-run DBSCAN session over one dataset: owns the points and a
/// prebuilt NeighborIndex, amortizing index builds across run()/sweep()
/// calls (refit on eps changes, cached neighbor counts on min_pts-only
/// changes).  Move-only.  See the file comment for the lifecycle.
class Clusterer {
 public:
  /// Take ownership of `points` (no copy).  Throws std::invalid_argument on
  /// non-finite coordinates or invalid Options (a negative
  /// triangle_subdivisions).  The backend is fixed here (kAuto is kBvhRt);
  /// the index itself is built at the first run's ε.
  explicit Clusterer(std::vector<geom::Vec3> points, Options options = {});
  /// Copying constructor for callers that keep their own storage.
  explicit Clusterer(std::span<const geom::Vec3> points,
                     Options options = {});

  /// Non-owning session: BORROWS `points` instead of copying them — the
  /// caller keeps the storage alive and unchanged for the session's
  /// lifetime.  This is what the one-shot rtd::cluster() wrapper uses (a
  /// throwaway session never outlives the caller's buffer); same
  /// validation and behavior as the owning constructors otherwise.
  [[nodiscard]] static Clusterer borrowing(std::span<const geom::Vec3> points,
                                           Options options = {});

  ~Clusterer();
  Clusterer(Clusterer&&) noexcept;
  Clusterer& operator=(Clusterer&&) noexcept;
  Clusterer(const Clusterer&) = delete;
  Clusterer& operator=(const Clusterer&) = delete;

  /// Cluster with DBSCAN(eps, min_pts), reusing the session index (refit —
  /// not rebuild — on eps changes where the backend supports it) and cached
  /// neighbor counts (min_pts-only changes).  The returned reference is
  /// valid until the next run()/sweep() or destruction; warm calls perform
  /// no heap allocations.
  const ClusterResult& run(float eps, std::uint32_t min_pts);

  /// Move the most recent run's result out of the session (no copy).  For
  /// throwaway sessions — the one-shot rtd::cluster() wrapper — where the
  /// zero-copy view run() returns would dangle.  The session stays usable,
  /// but the moved-out buffers are gone: the next run() reallocates every
  /// result buffer from scratch, fully independent of the taken copy (the
  /// session-side result is reset to a fresh empty value, so nothing
  /// aliases and a stray second take_result() yields a well-formed empty
  /// result rather than moved-from remains).
  [[nodiscard]] ClusterResult take_result();

  // --- Live sessions: incremental mutation --------------------------------

  /// Append `new_points` to the session and update the last clustering
  /// incrementally (see the file comment).  Returns the slot id of the
  /// first inserted point; the batch occupies [returned, returned + count).
  /// WRITER operation.  Requires a current result — call after run() or
  /// sweep(), not before and not after take_result() (std::logic_error).
  /// Throws std::invalid_argument on non-finite coordinates (session
  /// unchanged).
  /// The index absorbs the batch while the accumulated mutation delta
  /// stays under the rebuild threshold (max(64, live/8) slots) — in place,
  /// or on a clone of the index when a snapshot holds it (a new version
  /// sharing the built trees; the snapshot keeps the old one).  Past the
  /// threshold, or on a backend that cannot absorb inserts (kGrid,
  /// kDenseBox), this mutation rebuilds the index over the live set
  /// (stats.index_rebuilt reports which).
  std::size_t insert(std::span<const geom::Vec3> new_points);

  /// Tombstone the given slot ids and update the last clustering
  /// incrementally.  Ids keep their slots (labels/is_core/neighbor_counts
  /// stay index-aligned; the dead slots read kNoise / 0 / 0).  WRITER
  /// operation; same session preconditions as insert().  Throws
  /// std::invalid_argument on an out-of-range id, an already-removed id, or
  /// a duplicate id within the batch — validated up front, so a throwing
  /// call leaves the session unchanged.
  void remove(std::span<const std::uint32_t> ids);

  /// Sliding-window step: expire the `expire_count` OLDEST live points
  /// (insertion order) and append `new_points`, maintaining the clustering
  /// through both.  Returns the first inserted slot id.  WRITER operation;
  /// preconditions of insert()/remove() apply, plus expire_count must not
  /// exceed live_count().  This is the streaming loop of the trajectory /
  /// geospatial examples: one advance() per window step instead of a
  /// rebuild + recluster of the whole window.
  std::size_t advance(std::span<const geom::Vec3> new_points,
                      std::size_t expire_count);

  /// The maintained clustering: the last run()/sweep() result, updated in
  /// place by every mutation since.  Same storage run() returns a reference
  /// to; valid until the next writer call.  Throws std::logic_error when no
  /// current result exists (before the first run, or after take_result()).
  [[nodiscard]] const ClusterResult& result() const;

  /// Live (non-tombstoned) points.  size() counts all slots, dead included.
  [[nodiscard]] std::size_t live_count() const;
  /// Whether slot `id` is live.  Throws std::invalid_argument out of range.
  [[nodiscard]] bool is_live(std::uint32_t id) const;

  /// Cluster once per eps value (returned in input order) — the
  /// k-dist-style parameter exploration loop of §VI-B, executed as a
  /// session-optimized plan instead of k independent runs:
  ///   * the index is built (or retargeted) ONCE at max(eps_values);
  ///   * ONE fused count-and-cluster launch at ε_max — run()'s launch,
  ///     over a ladder (dbscan::index_count_cluster) — walks every point
  ///     once, buckets each pair's exact d² against all ladder values (a
  ///     query at ε_max covers every smaller ε-ball, and d² <= ε² is
  ///     exactly the filter each backend applies), and joins the pair into
  ///     every ladder value where it is an ε-edge and one end is core, each
  ///     value with its own union-find and border claims;
  ///   * per entry only label finalization runs — no refit, no traversal;
  ///   * after the ladder commits, the index is retargeted once to the
  ///     last value's ε where the backend refits (none for an ascending
  ///     ladder); grid/dense-box stay at their ε_max build, which legally
  ///     answers any smaller query radius.
  /// Every entry is an identical clustering to a fresh run at its eps (the
  /// parity suite enforces it); entry stats record the shared work (index
  /// step, the launch) on entry 0 and counts_reused on the rest, and the
  /// final retarget on the last entry.  Each element is an independent
  /// owning copy; the session result and count cache become the last
  /// entry's.
  ///
  /// The launch and every entry's finalization run before anything
  /// commits, so a fault in them is strong: health, result() and the count
  /// cache stay those of the previous call.  Only a fault while the last
  /// entry is copied into the result degrades the session.
  ///
  /// Every ladder value must be positive and finite (std::invalid_argument
  /// otherwise — validated up front, before any scratch is sized, so a NaN
  /// can never drive max(eps_values) or the bucketing pass).  Duplicate
  /// values are legal: duplicates share ONE ladder level (their clusterings
  /// are identical by definition) and each occurrence still yields its own
  /// result entry, in input order.  Scratch — counts, union-find and claim
  /// flags per level — is therefore O(k_unique·n), the one
  /// deliberate deviation from the engine's O(n) memory.
  std::vector<ClusterResult> sweep(std::span<const float> eps_values,
                                   std::uint32_t min_pts);

  /// Enumerate the dataset indices within `eps` of `center` (ascending),
  /// through the session index — retargeting it (refit or rebuild) when
  /// `eps` differs from the current index ε.  WRITER operation (it may
  /// retarget the session); the const overloads below are the concurrent
  /// path.  Throws std::invalid_argument on a non-finite `center` or a
  /// non-positive/non-finite `eps` — validated BEFORE the index is touched,
  /// so a garbage request can never drive a degenerate retarget.  `center`
  /// is treated as off-dataset: no self exclusion.
  std::vector<std::uint32_t> query_neighbors(const geom::Vec3& center,
                                             float eps);
  /// Same, for dataset point `i` (excluded from its own neighborhood).
  /// Throws std::invalid_argument for an out-of-range or removed slot.
  std::vector<std::uint32_t> query_neighbors(std::uint32_t i, float eps);

  // --- Concurrent serving layer -------------------------------------------

  /// Publish (or fetch) the session's immutable index snapshot: the current
  /// index at its current ε behind shared ownership.  O(1) steady state
  /// (one atomic load); the first call after a retarget creates the
  /// snapshot under a short writer-synchronized critical section.  Readers
  /// may hold the snapshot for any length of time — a writer retargeting ε
  /// or mutating the session moves on to a clone of the index instead of
  /// mutating this one.
  /// Throws std::logic_error before the first run()/sweep() (the index is
  /// built at the first run's ε, so there is none yet).
  [[nodiscard]] std::shared_ptr<const IndexSnapshot> snapshot() const;

  /// Genuinely const read: the ε-neighbors of `center` at the SNAPSHOT's
  /// built ε, without retargeting the session.  Safe from any number of
  /// threads, concurrently with writer refits (see the class comment).
  /// Same preconditions as snapshot().
  [[nodiscard]] std::vector<std::uint32_t> query_neighbors(
      const geom::Vec3& center) const;
  /// Same, for dataset point `i` (excluded from its own neighborhood).
  [[nodiscard]] std::vector<std::uint32_t> query_neighbors(
      std::uint32_t i) const;

  /// Const batched read: ONE parallel launch answers every center at `eps`
  /// through the snapshot (amortizing launch overhead across thousands of
  /// requests).  `eps` must satisfy the snapshot's radius rules
  /// (IndexSnapshot file comment): any eps <= the snapshot ε on every
  /// backend, larger only on the radius-agnostic ones.
  [[nodiscard]] BatchQueryResult query_batch(
      std::span<const geom::Vec3> centers, float eps,
      int threads = 0) const;

  /// k-distance graph of the dataset (ε-selection, Ester et al.'s recipe),
  /// computed with the RT-kNN extension.  Standalone passthrough: does not
  /// touch the session index.  k = 0 applies the classic 2 * dims default.
  /// In a live session only the LIVE points participate.
  [[nodiscard]] core::KdistResult kdist(std::uint32_t k = 0) const;

  /// Suggested ε: the knee of the k-distance graph.
  [[nodiscard]] float suggest_eps(std::uint32_t k = 0) const {
    return kdist(k).suggested_eps;
  }

  /// All-points k-nearest-neighbors on the RT device (rounds of
  /// fixed-radius queries).  Standalone passthrough: builds its own scene.
  [[nodiscard]] core::RtKnnResult knn(std::uint32_t k) const;

  /// The session's dataset, in query order.
  [[nodiscard]] std::span<const geom::Vec3> points() const;
  [[nodiscard]] std::size_t size() const { return points().size(); }
  /// The session's Options; `backend` reads the resolved kind (never
  /// kAuto).
  [[nodiscard]] const Options& options() const;

  /// The concrete backend the session was constructed with (never kAuto).
  [[nodiscard]] index::IndexKind backend() const;
  /// The ε the session index is currently built/refit for; nullopt before
  /// the first run.
  [[nodiscard]] std::optional<float> current_eps() const;
  /// True once neighbor counts are cached.  The cache is keyed on the ε
  /// they were computed for: a run() at that ε, at any min_pts, skips
  /// phase 1.
  [[nodiscard]] bool counts_cached() const;

  // --- Failure model (docs/ARCHITECTURE.md has the per-operation table) ----

  /// Current writer-side health.  kDegraded after a fault tore the result
  /// buffers mid-repair; the next run()/sweep()/mutation heals it by a full
  /// re-cluster (see SessionHealth).  Readers and snapshots are unaffected
  /// by a degraded writer.
  [[nodiscard]] SessionHealth health() const noexcept;

  /// One coherent read of the telemetry registry (counters, gauges, latency
  /// histograms — src/telemetry/telemetry.hpp names them all).  The
  /// registry is PROCESS-wide, not per-session: a host serving several
  /// sessions reads their combined activity.  All zeros when metrics were
  /// never armed (arm via rtd::telemetry::arm() or
  /// RTDBSCAN_TELEMETRY=metrics).
  [[nodiscard]] telemetry::MetricsSnapshot metrics() const;

  /// Self-audit of the session's invariants, from cheap structural checks
  /// (kQuick, O(n)) up to full oracle parity of the live clustering (kDeep).
  /// WRITER-synchronized read: call it from the writer thread (it inspects
  /// writer-side buffers that mutations rewrite).  Valid in every health
  /// state — a degraded session validates clean if its committed state
  /// (points, mask, counts) is coherent; result-dependent checks are
  /// skipped when no current result exists.  Never mutates the session.
  [[nodiscard]] ValidationReport validate(
      ValidationLevel level = ValidationLevel::kQuick) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rtd
