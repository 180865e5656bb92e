#include "index/bvh_rt_index.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <vector>

#include "geom/ray.hpp"

namespace rtd::index {

BvhRtIndex::BvhRtIndex(std::span<const geom::Vec3> points, float eps,
                       int threads)
    : accel_(std::make_shared<rt::SphereAccel>(
          std::vector<geom::Vec3>(points.begin(), points.end()), eps,
          threads)),
      points_(points),
      built_count_(points.size()),
      tail_(points.size()) {
  set_threads(threads);
}

bool BvhRtIndex::do_try_remove(std::span<const std::uint32_t> ids) {
  removed_since_refit_ += ids.size();
  if (removed_since_refit_ >= refit_threshold() && built_count_ > 0) {
    accel_.mut().refit_live(dead_mask(), threads());
    removed_since_refit_ = 0;
  }
  return true;
}

void BvhRtIndex::require_radius(float eps) const {
  if (eps != accel_->radius()) {
    throw std::invalid_argument(
        "BvhRtIndex: query eps " + std::to_string(eps) +
        " differs from the scene radius " + std::to_string(accel_->radius()) +
        " (the radius is baked into the sphere geometry; refit with "
        "try_set_eps)");
  }
}

void BvhRtIndex::query_sphere(const geom::Vec3& center, float eps,
                              std::uint32_t self, NeighborVisitor visit,
                              rt::TraversalStats& stats) const {
  require_radius(eps);
  const rt::SphereAccel& accel = *accel_;
  const geom::Ray ray = geom::Ray::point_query(center);
  accel.trace(
      ray,
      [&](std::uint32_t prim) {
        // Intersection program: exact point-in-sphere test (Alg. 2 line 6).
        if (prim != self && !is_dead(prim) && accel.origin_inside(ray, prim)) {
          visit(prim);
        }
      },
      stats);
  // Delta tail (incremental inserts since the scene build): same exact
  // test, identical set semantics.
  const float eps2 = eps * eps;
  scan_tail(geom::Aabb::of_sphere(center, eps), stats, [&](std::uint32_t j) {
    if (j != self && geom::distance_squared(center, points_[j]) <= eps2) {
      visit(j);
    }
  });
}

std::uint32_t BvhRtIndex::query_count(const geom::Vec3& center, float eps,
                                      std::uint32_t self,
                                      rt::TraversalStats& stats,
                                      std::uint32_t stop_at) const {
  (void)stop_at;  // OptiX: traversal cannot terminate early (§VI-B)
  require_radius(eps);
  const rt::SphereAccel& accel = *accel_;
  const geom::Ray ray = geom::Ray::point_query(center);
  std::uint32_t count = 0;
  accel.trace(
      ray,
      [&](std::uint32_t prim) {
        if (prim != self && !is_dead(prim) && accel.origin_inside(ray, prim)) {
          ++count;
        }
      },
      stats);
  const float eps2 = eps * eps;
  scan_tail(geom::Aabb::of_sphere(center, eps), stats, [&](std::uint32_t j) {
    if (j != self && geom::distance_squared(center, points_[j]) <= eps2) {
      ++count;
    }
  });
  return count;
}

template <typename OnPair>
void BvhRtIndex::trace_packet(std::span<const std::uint32_t> ids, float eps,
                              rt::TraversalStats& stats,
                              OnPair&& on_pair) const {
  if (ids.size() > rt::kPacketWidth) {
    throw std::invalid_argument("BvhRtIndex: a packet holds at most " +
                                std::to_string(rt::kPacketWidth) + " ids");
  }
  require_radius(eps);
  const rt::SphereAccel& accel = *accel_;
  rt::PointPacket packet;
  for (const std::uint32_t id : ids) packet.push(points_[id]);
  accel.trace_packet(
      packet,
      [&](std::uint32_t prim, std::uint32_t rays) {
        // The Intersection program of every ray in `rays` at once: one
        // dead check, one 4-wide point-in-sphere test.
        if (is_dead(prim)) return;
        float d2[rt::kPacketWidth];
        for (std::uint32_t in = accel.origins_inside(packet, prim, d2) & rays;
             in != 0; in &= in - 1) {
          const auto k = static_cast<std::uint32_t>(std::countr_zero(in));
          if (prim != ids[k]) on_pair(k, prim, d2[k]);
        }
      },
      stats);
  const float eps2 = eps * eps;
  for (std::uint32_t k = 0; k < ids.size(); ++k) {
    const std::uint32_t self = ids[k];
    const geom::Vec3& center = points_[self];
    scan_tail(geom::Aabb::of_sphere(center, eps), stats,
              [&](std::uint32_t j) {
                const float d2 = geom::distance_squared(center, points_[j]);
                if (j != self && d2 <= eps2) on_pair(k, j, d2);
              });
  }
}

void BvhRtIndex::query_count_packet(std::span<const std::uint32_t> ids,
                                    float eps,
                                    std::span<std::uint32_t> counts,
                                    rt::TraversalStats& stats,
                                    std::uint32_t stop_at) const {
  (void)stop_at;  // OptiX: traversal cannot terminate early (§VI-B)
  std::fill(counts.begin(), counts.end(), 0u);
  trace_packet(ids, eps, stats, [&](std::uint32_t k, std::uint32_t, float) {
    ++counts[k];
  });
}

void BvhRtIndex::query_sphere_packet(std::span<const std::uint32_t> ids,
                                     float eps, PairVisitor visit,
                                     rt::TraversalStats& stats) const {
  trace_packet(ids, eps, stats,
               [&](std::uint32_t k, std::uint32_t j, float) { visit(k, j); });
}

std::size_t BvhRtIndex::query_pairs_packet(std::span<const std::uint32_t> ids,
                                           float eps,
                                           std::span<PacketPair> pairs,
                                           std::span<std::uint32_t> rows,
                                           rt::TraversalStats& stats) const {
  std::fill(rows.begin(), rows.end(), 0u);
  std::size_t found = 0;
  trace_packet(ids, eps, stats,
               [&](std::uint32_t k, std::uint32_t j, float d2) {
                 ++rows[k];
                 if (found < pairs.size()) pairs[found] = {k, j, d2};
                 ++found;
               });
  return found;
}

void BvhRtIndex::query_box(const geom::Aabb& box, NeighborVisitor visit,
                           rt::TraversalStats& stats) const {
  // The sphere-scene BVH stores ε-inflated leaf boxes, so the traversal
  // surfaces a superset; the exact point-in-box filter runs here.
  const rt::SphereAccel& accel = *accel_;
  const auto& centers = accel.centers();
  rt::traverse_overlap(
      accel.wide_bvh(), box,
      [&](std::uint32_t prim) {
        ++stats.isect_calls;
        if (!is_dead(prim) && box.contains(centers[prim])) visit(prim);
        return rt::TraversalControl::kContinue;
      },
      stats);
  scan_tail(box, stats, [&](std::uint32_t j) {
    if (box.contains(points_[j])) visit(j);
  });
}

}  // namespace rtd::index
