// BruteForceIndex — the O(n)-per-query reference backend.
//
// No build step, no auxiliary structure: every query scans all points.  This
// is the correctness oracle the parity tests compare every other backend
// against.  It is also what G-DBSCAN's original GPU kernels do, which is why
// that algorithm defaults to this backend.
#pragma once

#include <memory>
#include <span>

#include "index/neighbor_index.hpp"

namespace rtd::index {

/// Linear-scan neighbor index.  Every candidate examined counts one
/// Intersection-program call in the query stats, so its work counters are
/// directly comparable with the tree backends'.
class BruteForceIndex final : public NeighborIndex {
 public:
  /// "Build": records the span; O(1).
  BruteForceIndex(std::span<const geom::Vec3> points, float eps);

  [[nodiscard]] IndexKind kind() const override {
    return IndexKind::kBruteForce;
  }
  [[nodiscard]] std::span<const geom::Vec3> points() const override {
    return points_;
  }
  [[nodiscard]] float build_eps() const override { return eps_; }
  [[nodiscard]] bool refittable() const override { return true; }

  void query_sphere(const geom::Vec3& center, float eps, std::uint32_t self,
                    NeighborVisitor visit,
                    rt::TraversalStats& stats) const override;

  [[nodiscard]] std::uint32_t query_count(
      const geom::Vec3& center, float eps, std::uint32_t self,
      rt::TraversalStats& stats, std::uint32_t stop_at) const override;

 private:
  std::unique_ptr<NeighborIndex> do_clone() override {
    return std::make_unique<BruteForceIndex>(*this);
  }

  /// Refit contract: trivially satisfiable — there is no structure, only
  /// the recorded build ε.  Reached through NeighborIndex::try_set_eps,
  /// which owns the eps validation.
  bool do_try_set_eps(float eps) override {
    eps_ = eps;
    return true;
  }

  /// Insert contract: rebind the span — the scan covers the appended tail
  /// natively.
  bool do_try_insert(std::span<const geom::Vec3> all_points,
                     std::size_t first_new) override {
    (void)first_new;
    points_ = all_points;
    return true;
  }

  // Removal: the base dead mask alone (checked in the scan loops) suffices
  // — the default do_try_remove already returns true.

  std::span<const geom::Vec3> points_;
  float eps_;
};

}  // namespace rtd::index
