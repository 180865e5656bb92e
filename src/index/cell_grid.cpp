#include "index/cell_grid.hpp"

#include <numeric>
#include <stdexcept>

namespace rtd::index {

CellGrid::CellGrid(std::span<const geom::Vec3> points, float edge)
    : edge_(edge) {
  if (!geom::is_valid_radius(edge)) {
    throw std::invalid_argument(
        "CellGrid: cell edge must be positive and finite");
  }
  for (const auto& p : points) bounds_.grow(p);

  // Counting sort: number the cells in order of first appearance, count
  // their members, then fill each CSR range in ascending id order.
  std::vector<std::uint32_t> cell(points.size());
  cell_of_.reserve(points.size() / 2);
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::int64_t c[3];
    for (std::size_t a = 0; a < 3; ++a) {
      c[a] = coord(points[i][a], a);
      cmax_[a] = std::max(cmax_[a], c[a]);
    }
    const auto next = static_cast<std::uint32_t>(start_.size() - 1);
    const auto [it, fresh] =
        cell_of_.try_emplace(pack_cell_key(c[0], c[1], c[2]), next);
    if (fresh) start_.push_back(0);
    cell[i] = it->second;
    ++start_[it->second + 1];
  }
  std::partial_sum(start_.begin(), start_.end(), start_.begin());
  std::vector<std::uint32_t> fill(start_.begin(), start_.end() - 1);
  ids_.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    ids_[fill[cell[i]]++] = static_cast<std::uint32_t>(i);
  }
}

}  // namespace rtd::index
