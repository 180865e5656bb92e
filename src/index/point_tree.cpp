#include "index/point_tree.hpp"

#include <algorithm>
#include <vector>

#include "common/parallel.hpp"

namespace rtd::index {

namespace {

std::vector<geom::Aabb> point_bounds(std::span<const geom::Vec3> points,
                                     int threads) {
  std::vector<geom::Aabb> bounds(points.size());
  parallel_for(points.size(), threads, [&](std::size_t i) {
    bounds[i] = geom::Aabb::of_point(points[i]);
  });
  return bounds;
}

}  // namespace

PointTree::PointTree(std::span<const geom::Vec3> points, int threads)
    : bvh(rt::build_bvh(point_bounds(points, threads), threads)),
      wide(points.size() >= kWideMinPoints ? rt::collapse_bvh(bvh)
                                           : rt::WideBvh{}) {}

void PointTree::refit(std::span<const geom::Vec3> points,
                      std::span<const std::uint8_t> dead, int threads) {
  bvh.refit(point_bounds(points, threads), dead);
  if (!wide.empty()) wide.refit_from(bvh);
}

void DeltaTail::absorb(std::span<const geom::Vec3> points) {
  const std::size_t indexed = indexed_end_ - first_;
  if (points.size() - indexed_end_ <=
      std::max(kResidue, indexed / kResidueShare)) {
    return;
  }
  // Tail trees are small next to the main build: a one-thread build avoids
  // waking the worker pool per re-index on the writer's thread.
  tree_ = std::make_shared<const PointTree>(points.subspan(first_), 1);
  indexed_end_ = points.size();
}

}  // namespace rtd::index
