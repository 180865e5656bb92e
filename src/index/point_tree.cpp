#include "index/point_tree.hpp"

#include <algorithm>
#include <vector>

#include "common/parallel.hpp"

namespace rtd::index {

namespace {

std::vector<geom::Aabb> point_bounds(std::span<const geom::Vec3> points,
                                     bool parallel) {
  std::vector<geom::Aabb> bounds(points.size());
  const auto fill = [&](std::size_t i) {
    bounds[i] = geom::Aabb::of_point(points[i]);
  };
  if (parallel) {
    parallel_for(points.size(), fill);
  } else {
    for (std::size_t i = 0; i < points.size(); ++i) fill(i);
  }
  return bounds;
}

}  // namespace

PointTree::PointTree(std::span<const geom::Vec3> points,
                     const rt::BuildOptions& build)
    : bvh(rt::build_bvh(point_bounds(points, build.parallel), build)),
      wide(rt::derive_wide_layout(bvh, build, points.size())) {}

void PointTree::refit(std::span<const geom::Vec3> points,
                      std::span<const std::uint8_t> dead) {
  bvh.refit(point_bounds(points, /*parallel=*/true), dead);
  if (!wide.empty()) wide.refit_from(bvh);
}

void DeltaTail::absorb(std::span<const geom::Vec3> points,
                       const rt::BuildOptions& build) {
  const std::size_t indexed = indexed_end_ - first_;
  if (points.size() - indexed_end_ <=
      std::max(kResidue, indexed / kResidueShare)) {
    return;
  }
  // Tail trees are small next to the main build: a serial build avoids a
  // parallel region per re-index on the writer's thread.
  rt::BuildOptions serial = build;
  serial.parallel = false;
  tree_ = std::make_shared<const PointTree>(points.subspan(first_), serial);
  indexed_end_ = points.size();
}

}  // namespace rtd::index
