#include "index/triangle_index.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "geom/ray.hpp"
#include "index/query_scratch.hpp"

namespace rtd::index {

TriangleIndex::TriangleIndex(std::span<const geom::Vec3> points, float eps,
                             int subdivisions,
                             const rt::Context::Options& options)
    : accel_(std::make_shared<rt::TriangleAccel>(
          rt::Context(options).build_triangles(points, eps, subdivisions))),
      points_(points),
      built_count_(points.size()),
      tail_(points.size()) {
  set_threads(options.threads);
}

void TriangleIndex::query_sphere(const geom::Vec3& center, float eps,
                                 std::uint32_t self, NeighborVisitor visit,
                                 rt::TraversalStats& stats) const {
  const rt::TriangleAccel& accel = *accel_;
  if (eps != accel.radius()) {
    throw std::invalid_argument(
        "TriangleIndex: query eps " + std::to_string(eps) +
        " differs from the tessellation radius " +
        std::to_string(accel.radius()) +
        " (the radius is baked into the triangles; refit with try_set_eps)");
  }
  const float eps2 = eps * eps;
  // AnyHit program: owner dedup, then the self/dead/exact-distance filter.
  const auto on_owner = [&](std::uint32_t j) {
    if (j != self && !is_dead(j) &&
        geom::distance_squared(center, points_[j]) <= eps2) {
      visit(j);
    }
  };
  // tmax covers the exit through the circumscribed shell: the mesh vertex
  // scale is the accel's own (radius / inradius).
  const geom::Ray ray{center, {0.0f, 0.0f, 1.0f}, 0.0f,
                      1.01f * (eps + accel.vertex_scale())};
  QueryScratch& scratch = QueryScratch::local();
  if (scratch.stamp_busy) {
    // Started from inside another stamped query's visitor on this thread:
    // its stamps are live, so dedup through a local list instead.
    std::vector<std::uint32_t> seen;
    accel.trace(
        ray,
        [&](std::uint32_t owner, float /*t_hit*/) {
          if (std::find(seen.begin(), seen.end(), owner) != seen.end()) {
            return;
          }
          seen.push_back(owner);
          on_owner(owner);
        },
        stats);
  } else {
    struct Busy {
      bool& flag;
      explicit Busy(bool& f) : flag(f) { flag = true; }
      ~Busy() { flag = false; }
      Busy(const Busy&) = delete;
      Busy& operator=(const Busy&) = delete;
    } const busy(scratch.stamp_busy);
    std::vector<std::uint32_t>& stamp = scratch.stamp;
    if (stamp.size() < built_count_) stamp.resize(built_count_, 0);
    if (++scratch.stamp_epoch == 0) {  // wrapped: no stale stamp may match
      std::fill(stamp.begin(), stamp.end(), 0u);
      scratch.stamp_epoch = 1;
    }
    const std::uint32_t query = scratch.stamp_epoch;
    accel.trace(
        ray,
        [&](std::uint32_t owner, float /*t_hit*/) {
          if (stamp[owner] == query) return;
          stamp[owner] = query;
          on_owner(owner);
        },
        stats);
  }
  // Delta tail (incremental inserts since the scene build): exact test.
  tail_.for_each_candidate(
      points_, geom::Aabb::of_sphere(center, eps), stats,
      [&](std::uint32_t j) {
        ++stats.isect_calls;
        on_owner(j);
        return rt::TraversalControl::kContinue;
      });
}

}  // namespace rtd::index
