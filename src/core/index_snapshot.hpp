// rtd::IndexSnapshot — an immutable, shareable view of a session's neighbor
// index, the unit of the concurrent serving layer.
//
// The paper's amortization argument (§VI-B: build one neighbor structure,
// serve many queries from it) only pays off at scale if many readers can hit
// the structure at once — which requires reads that are genuinely
// side-effect-free.  A snapshot freezes one (index, ε) pair behind
// shared_ptr ownership:
//
//   rtd::Clusterer session(points);
//   session.run(0.5f, 10);                       // builds the index
//   auto snap = session.snapshot();              // publish: O(1), no copy
//   // ... any number of threads, no locks on this path:
//   auto ids   = snap->query_neighbors(center);  // at the snapshot's ε
//   auto batch = snap->query_batch(centers, 0.4f);
//
// Reclamation is shared_ptr-epoch style: a snapshot pins one immutable
// VERSION of the index.  When the session later retargets its ε or absorbs
// a mutation, it never mutates a version a snapshot holds — it clones it
// (NeighborIndex::clone: the new version shares the built trees and copies
// a tree only to refit or retarget it, and the dead mask whole), mutates
// the clone and drops its own reference to the old version.  Readers
// holding the old snapshot finish safely against their epoch (old ε, old
// points, old liveness); the version is freed when the last reader
// releases it.  A snapshot's results are therefore always internally
// consistent: entirely old or entirely new, never torn.
//
// Query radius rules (per backend, enforced with std::invalid_argument):
//  * eps == eps()      — served directly on every backend;
//  * eps <  eps()      — served on every backend (radius-agnostic backends
//                        query natively; kBvhRt and kTriangles, whose ε is
//                        baked into the geometry, enumerate at their built
//                        ε and filter exactly by d² <= eps² — a strict
//                        superset, so the filter is exact);
//  * eps >  eps()      — served only where the structure is radius-agnostic
//                        (kPointBvh, kBruteForce, kDenseBox); kGrid's
//                        one-ring guarantee and the RT scenes' baked radius
//                        cannot answer it — retarget the session and
//                        re-snapshot.
//
// Thread-safety: every member function is const and safe to call
// concurrently from any number of threads (the underlying NeighborIndex
// query contract).  The snapshot shares ownership of the session's owned
// point buffer and pins its own prefix of it (the session appends past
// that prefix without moving it, core/point_buffer.hpp); for sessions
// created with Clusterer::borrowing, the caller's storage must outlive
// every snapshot, not just the session.
//
// Under the Clang thread-safety gate (common/thread_annotations.hpp) this
// class deliberately carries no capability annotations: it is immutable
// after construction, so there is no guarded state to annotate — safety
// comes from const-ness and shared_ptr reclamation, both of which the
// compiler already enforces.  The mutable publish/retarget discipline that
// FEEDS snapshots (publish_mu, index_shared) is annotated in
// core/clusterer.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "geom/vec3.hpp"
#include "index/neighbor_index.hpp"

namespace rtd {

/// Result of one batched snapshot query: neighbor ids in CSR form, one
/// bucket per query center, each bucket ascending.
struct BatchQueryResult {
  /// Neighbor dataset indices, grouped by query: query q's neighbors are
  /// ids[starts[q] .. starts[q+1]), sorted ascending.
  std::vector<std::uint32_t> ids;
  /// Bucket boundaries into `ids`; size = query count + 1.
  std::vector<std::uint32_t> starts;
  /// Work counters and wall time of the two launch passes (count + fill).
  rt::LaunchStats stats;

  [[nodiscard]] std::size_t query_count() const {
    return starts.empty() ? 0 : starts.size() - 1;
  }

  /// Neighbors of query center `q`, ascending; empty for out-of-range q.
  [[nodiscard]] std::span<const std::uint32_t> neighbors_of(
      std::size_t q) const {
    if (q + 1 >= starts.size()) return {};
    return std::span<const std::uint32_t>(ids).subspan(
        starts[q], starts[q + 1] - starts[q]);
  }
};

/// Immutable view of one (NeighborIndex, ε) pair — see the file comment for
/// the serving lifecycle.  Constructed by Clusterer::snapshot(); the
/// constructor is public so tooling can also wrap an index::make_index()
/// result directly.
class IndexSnapshot {
 public:
  /// Wrap `index` built at `eps` over `points`.  `storage` owns the
  /// memory `points` views and may be null (borrowed points) — when set,
  /// the snapshot co-owns it so the points outlive the session.  Throws
  /// std::invalid_argument on a null index or a non-positive/non-finite
  /// eps.
  IndexSnapshot(std::shared_ptr<const index::NeighborIndex> index,
                std::shared_ptr<const void> storage,
                std::span<const geom::Vec3> points, float eps);

  /// The ε the snapshot's index is built/refit for.
  [[nodiscard]] float eps() const { return eps_; }
  /// The concrete backend answering the queries (never kAuto).
  [[nodiscard]] index::IndexKind backend() const { return index_->kind(); }
  /// The frozen dataset, in query order.
  [[nodiscard]] std::span<const geom::Vec3> points() const { return points_; }
  [[nodiscard]] std::size_t size() const { return points_.size(); }
  /// The wrapped index (const — the whole point).
  [[nodiscard]] const index::NeighborIndex& index() const { return *index_; }

  /// Dataset indices within the snapshot ε of `center`, ascending.
  /// `center` is off-dataset: no self exclusion.
  [[nodiscard]] std::vector<std::uint32_t> query_neighbors(
      const geom::Vec3& center) const;
  /// Same, at an explicit radius (see the file comment's radius rules).
  [[nodiscard]] std::vector<std::uint32_t> query_neighbors(
      const geom::Vec3& center, float eps) const;
  /// Neighbors of dataset point `i` at the snapshot ε, excluding `i`.
  [[nodiscard]] std::vector<std::uint32_t> query_neighbors(
      std::uint32_t i) const;

  /// Allocation-free form: fills `out` (cleared first, capacity reused)
  /// with the ascending neighbor ids of `center` at `eps`, excluding
  /// dataset index `self` (index::kNoSelf for off-dataset centers).
  void query_neighbors_into(const geom::Vec3& center, float eps,
                            std::uint32_t self,
                            std::vector<std::uint32_t>& out) const;

  /// Number of ε-neighbors of `center` (self excluded when `self` given).
  [[nodiscard]] std::uint32_t query_count(
      const geom::Vec3& center, float eps,
      std::uint32_t self = index::kNoSelf) const;

  /// Batched query: ONE parallel launch answers every center (threads = 0
  /// uses all hardware threads; pass 1 from a serving thread that must not
  /// spawn).  Two passes per center — count, then fill into the exact CSR
  /// slot — so the result needs no intermediate per-center buffers.
  [[nodiscard]] BatchQueryResult query_batch(
      std::span<const geom::Vec3> centers, float eps, int threads = 0) const;

  /// Allocation-free batched form: reuses `out`'s buffers (warm steady
  /// state allocates nothing once capacities reach their high-water mark).
  void query_batch_into(std::span<const geom::Vec3> centers, float eps,
                        int threads, BatchQueryResult& out) const;

 private:
  /// Radius-rule dispatch behind every query (see the file comment).
  void visit_neighbors(const geom::Vec3& center, float eps,
                       std::uint32_t self, index::NeighborVisitor visit,
                       rt::TraversalStats& stats) const;

  std::shared_ptr<const index::NeighborIndex> index_;
  std::shared_ptr<const void> storage_;
  std::span<const geom::Vec3> points_;
  float eps_ = 0.0f;
  /// Backend accepts any query radius natively (kPointBvh, kBruteForce,
  /// kDenseBox) — larger-than-built queries are legal.
  bool radius_agnostic_ = false;
};

}  // namespace rtd
