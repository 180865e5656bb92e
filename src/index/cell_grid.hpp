// CellGrid — the one uniform grid: points binned into cubic cells of a
// fixed edge, anchored at the low corner of their bounds, each non-empty
// cell's members stored as one CSR range (ascending ids).
//
// Every grid in the repository runs on this file:
//   * index::GridIndex (edge ε) walks the 3×3×3 ring of cells around a
//     query — the uniform grid of the sequential reference, CUDA-DClust+
//     and the check_equivalent oracle;
//   * index::DenseBoxIndex (edge ε/√dims) walks the cells overlapping a
//     query's box and certifies whole cells;
//   * close_seeds and the label repair's sparse tier key their cells with
//     cell_key() below (origin-anchored, no CSR).
// All of them pack a cell into one 64-bit key (pack_cell_key) from one
// clamped cell coordinate (cell_coord).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/vec3.hpp"

namespace rtd::index {

/// Bits of one axis in a packed cell key.
inline constexpr int kCellKeyBits = 21;
inline constexpr std::uint64_t kCellKeyMask =
    (std::uint64_t{1} << kCellKeyBits) - 1;

/// The cell index of a coordinate already divided by the cell edge:
/// floor(c), clamped to ±2^62 so the integer conversion is defined for
/// every finite coordinate and every neighbouring index (c ± 2) fits.
inline std::int64_t cell_coord(double c) {
  return static_cast<std::int64_t>(
      std::clamp(std::floor(c), -0x1p62, 0x1p62));
}

/// The packed key of cell (x, y, z): each index modulo 2^21, x in the high
/// field.  Cells 2^21 apart on an axis share a key, so a key names a cell
/// only up to that aliasing.
inline std::uint64_t pack_cell_key(std::int64_t x, std::int64_t y,
                                   std::int64_t z) {
  const auto field = [](std::int64_t c) {
    return static_cast<std::uint64_t>(c) & kCellKeyMask;
  };
  return field(x) << (2 * kCellKeyBits) | field(y) << kCellKeyBits |
         field(z);
}

/// The packed key of p's cell in a grid of side 1 / inv_h anchored at the
/// coordinate origin.
inline std::uint64_t cell_key(const geom::Vec3& p, double inv_h) {
  const auto c = [inv_h](float v) {
    return cell_coord(static_cast<double>(v) * inv_h);
  };
  return pack_cell_key(c(p.x), c(p.y), c(p.z));
}

/// `key` moved by (dx, dy, dz) cells, each field wrapping like cell_key's.
inline std::uint64_t shift_cell_key(std::uint64_t key, int dx, int dy,
                                    int dz) {
  const auto field = [key](int shift, int d) {
    return ((key >> shift) + static_cast<std::uint64_t>(d)) & kCellKeyMask;
  };
  return field(2 * kCellKeyBits, dx) << (2 * kCellKeyBits) |
         field(kCellKeyBits, dy) << kCellKeyBits | field(0, dz);
}

/// Immutable uniform grid over a point span.  Walks hand the visitor cell
/// numbers in [0, num_cells()); members(cell) lists the cell's point ids.
/// A packed key can alias cells on an axis spanning more than 2^21 of
/// them: the walks then hand over extra cells, never miss one, so callers
/// that filter members by exact distance stay exact.
class CellGrid {
 public:
  /// Bin `points` into cells of edge `edge`.  std::invalid_argument unless
  /// `edge` is positive and finite.
  CellGrid(std::span<const geom::Vec3> points, float edge);

  [[nodiscard]] std::uint32_t num_cells() const {
    return static_cast<std::uint32_t>(start_.size() - 1);
  }
  [[nodiscard]] std::span<const std::uint32_t> members(
      std::uint32_t cell) const {
    return {ids_.data() + start_[cell], start_[cell + 1] - start_[cell]};
  }

  /// f(cell) for each non-empty cell of the 3×3×3 ring around q's cell
  /// (z outermost, x innermost) until f returns false.  Covers every point
  /// within one edge of q.
  template <typename F>
  void for_ring(const geom::Vec3& q, F&& f) const {
    std::int64_t lo[3], hi[3];
    const float v[3] = {q.x, q.y, q.z};
    for (std::size_t a = 0; a < 3; ++a) {
      const std::int64_t c = coord(v[a], a);
      lo[a] = std::max<std::int64_t>(c - 1, 0);
      hi[a] = std::min(c + 1, cmax_[a]);
    }
    walk(lo, hi, f);
  }

  /// f(cell) for each non-empty cell overlapping `box` until f returns
  /// false; nothing when `box` misses the points' bounds.  Returns false
  /// WITHOUT visiting anything when the walk would cover more than
  /// size + 1024 cells (say, a box far wider than the edge on spread
  /// data): the caller's linear scan is cheaper then.  It also refuses a
  /// range over 2^21 cells on one axis.
  template <typename F>
  bool for_box(const geom::Aabb& box, F&& f) const {
    if (ids_.empty() || !box.overlaps(bounds_)) return true;
    std::int64_t lo[3], hi[3];
    double span = 1.0;
    for (std::size_t a = 0; a < 3; ++a) {
      lo[a] = std::clamp<std::int64_t>(coord(box.lo[a], a), 0, cmax_[a]);
      hi[a] = std::clamp<std::int64_t>(coord(box.hi[a], a), 0, cmax_[a]);
      // Wider than a key field, the walk would meet aliased cells twice.
      if (hi[a] - lo[a] > static_cast<std::int64_t>(kCellKeyMask)) {
        return false;
      }
      span *= static_cast<double>(
          std::max<std::int64_t>(hi[a] - lo[a] + 1, 0));
    }
    if (span > static_cast<double>(ids_.size()) + 1024.0) return false;
    walk(lo, hi, f);
    return true;
  }

 private:
  [[nodiscard]] std::int64_t coord(float v, std::size_t axis) const {
    return cell_coord((v - bounds_.lo[axis]) / edge_);
  }

  template <typename F>
  void walk(const std::int64_t (&lo)[3], const std::int64_t (&hi)[3],
            F& f) const {
    for (std::int64_t z = lo[2]; z <= hi[2]; ++z) {
      for (std::int64_t y = lo[1]; y <= hi[1]; ++y) {
        for (std::int64_t x = lo[0]; x <= hi[0]; ++x) {
          const auto it = cell_of_.find(pack_cell_key(x, y, z));
          if (it != cell_of_.end() && !f(it->second)) return;
        }
      }
    }
  }

  float edge_;
  geom::Aabb bounds_;  ///< of the points; its low corner anchors the cells
  /// Largest occupied cell index per axis; -1 on an empty grid, so every
  /// walk is empty.
  std::int64_t cmax_[3] = {-1, -1, -1};
  std::unordered_map<std::uint64_t, std::uint32_t> cell_of_;  ///< key→cell
  std::vector<std::uint32_t> start_{0};  ///< cell c: ids_[start_[c], start_[c+1])
  std::vector<std::uint32_t> ids_;
};

}  // namespace rtd::index
