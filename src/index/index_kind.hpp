// IndexKind — the runtime selector for the pluggable neighbor-index layer.
//
// Kept in its own dependency-free header so `dbscan::Params` (dbscan/core.hpp)
// can carry a backend choice without pulling the index implementations into
// every translation unit.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace rtd::index {

/// Which neighbor-query backend answers the ε-neighborhood queries.
///
/// See docs/ARCHITECTURE.md for the selection guide and the exact contract
/// every backend satisfies.
enum class IndexKind : std::uint8_t {
  /// The default: the consuming algorithm's traditional substrate where
  /// one exists (grid for the sequential reference, brute force for
  /// G-DBSCAN, point-BVH for FDBSCAN), kBvhRt everywhere else (make_index,
  /// Clusterer, rtd::cluster).
  kAuto = 0,
  /// Linear scan over all points.  No build cost, O(n) per query; the
  /// reference backend every other one is tested against.
  kBruteForce,
  /// Uniform grid (index::CellGrid) with cell edge = build ε; a query
  /// examines the 27 surrounding cells.
  kGrid,
  /// The same grid with cell diagonal = build ε: whole cells can be
  /// accepted (all members within ε) or rejected without per-point
  /// distance tests.
  kDenseBox,
  /// BVH over the bare data points, volume-overlap queries — FDBSCAN's
  /// substrate.  Radius-agnostic and supports early termination.
  kPointBvh,
  /// The paper's RT pipeline: ε-sphere scene + ray traversal on the RT-core
  /// simulator (rt/scene + rt/traversal).  Faithful to OptiX semantics:
  /// traversal cannot terminate early.
  kBvhRt,
  /// The paper's §VI-C alternative: each ε-sphere tessellated into
  /// triangles, hits delivered through an AnyHit program (rt::TriangleAccel).
  /// Same baked-radius and no-early-exit semantics as kBvhRt, measured 2-5x
  /// slower.
  kTriangles,
};

/// Short stable name ("auto", "brute", "grid", "densebox", "pointbvh",
/// "bvhrt", "triangles") for logs, flags and benchmark labels.
const char* to_string(IndexKind kind);

/// Inverse of to_string(); std::nullopt for unknown names.
std::optional<IndexKind> parse_index_kind(std::string_view name);

/// Resolve kAuto to an algorithm's traditional substrate: returns
/// `requested` unless it is kAuto, in which case `fallback` (the
/// algorithm's documented default backend).
[[nodiscard]] constexpr IndexKind resolve_auto(IndexKind requested,
                                               IndexKind fallback) {
  return requested == IndexKind::kAuto ? fallback : requested;
}

/// All concrete backends (everything except kAuto), for sweeps in tests and
/// benchmarks.
inline constexpr IndexKind kAllIndexKinds[] = {
    IndexKind::kBruteForce, IndexKind::kGrid,     IndexKind::kDenseBox,
    IndexKind::kPointBvh,   IndexKind::kBvhRt,    IndexKind::kTriangles,
};

}  // namespace rtd::index
