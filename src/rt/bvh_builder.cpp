// BVH construction: Morton-order LBVH (hardware-style).
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "geom/morton.hpp"
#include "rt/bvh.hpp"
#include "rt/radix_sort.hpp"

namespace rtd::rt {

namespace {

using geom::Aabb;
using geom::Vec3;

// --------------------------------------------------------------------------
// LBVH: primitives sorted by the Morton code of their centroid; ranges are
// split at the most significant bit where the first and last codes differ
// (Karras-style top-down formulation).  Duplicated codes fall back to a
// median split so the tree stays balanced on degenerate input.
// --------------------------------------------------------------------------
class LbvhBuilder {
 public:
  LbvhBuilder(std::span<const Aabb> bounds, const BuildOptions& opts,
              Bvh& out)
      : prim_bounds(bounds), options(opts), bvh(out) {}

  std::uint32_t max_depth = 0;

  void build() {
    const auto n = static_cast<std::uint32_t>(prim_bounds.size());

    // 1. Morton codes of primitive centroids, normalized to scene bounds.
    codes_.resize(n);
    const Aabb scene = bvh.scene_bounds;
    const auto encode = [&](std::size_t i) {
      codes_[i] = geom::morton3_in(scene, prim_bounds[i].center());
    };
    if (options.parallel) {
      parallel_for(n, encode);
    } else {
      for (std::size_t i = 0; i < n; ++i) encode(i);
    }
    bvh.prim_index.resize(n);
    std::iota(bvh.prim_index.begin(), bvh.prim_index.end(), 0u);

    // 2. Sort primitive ids by code (the hardware builder's radix sort).
    if (options.parallel) {
      radix_sort_pairs(codes_, bvh.prim_index);
    } else {
      std::vector<std::uint32_t> order(n);
      std::iota(order.begin(), order.end(), 0u);
      // Ties broken by id: the stable order the radix sort produces.
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return codes_[a] < codes_[b] ||
                         (codes_[a] == codes_[b] && a < b);
                });
      std::vector<std::uint32_t> sorted_codes(n), sorted_prims(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        sorted_codes[i] = codes_[order[i]];
        sorted_prims[i] = bvh.prim_index[order[i]];
      }
      codes_.swap(sorted_codes);
      bvh.prim_index.swap(sorted_prims);
    }

    // 3. Emit hierarchy top-down over the sorted order.
    bvh.nodes.reserve(2 * static_cast<std::size_t>(n));
    const std::uint32_t root = alloc_node();
    build_range(root, 0, n, 1);
  }

 private:
  std::uint32_t alloc_node() {
    bvh.nodes.emplace_back();
    return static_cast<std::uint32_t>(bvh.nodes.size() - 1);
  }

  void make_leaf(std::uint32_t node, std::uint32_t first,
                 std::uint32_t count) {
    Aabb box;
    for (std::uint32_t i = first; i < first + count; ++i) {
      box.grow(prim_bounds[bvh.prim_index[i]]);
    }
    bvh.nodes[node].bounds = box;
    bvh.nodes[node].left_or_first = first;
    bvh.nodes[node].count = count;
  }

  /// Index of the first element in [first, first+count) whose code differs
  /// from codes_[first] in the given bit.  The range is sorted, so this is a
  /// binary search.
  std::uint32_t find_bit_split(std::uint32_t first, std::uint32_t count,
                               std::uint32_t bit_mask) const {
    std::uint32_t lo = first;
    std::uint32_t hi = first + count;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if ((codes_[mid] & bit_mask) == 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  void build_range(std::uint32_t node, std::uint32_t first,
                   std::uint32_t count, std::uint32_t depth) {
    max_depth = std::max(max_depth, depth);
    if (count <= options.leaf_size) {
      make_leaf(node, first, count);
      return;
    }

    std::uint32_t split = first + count / 2;  // fallback: median
    const std::uint32_t first_code = codes_[first];
    const std::uint32_t last_code = codes_[first + count - 1];
    if (first_code != last_code) {
      const int prefix = geom::common_prefix_length(first_code, last_code);
      // Morton codes occupy the low 30 of 32 bits; the first differing bit
      // position (from MSB) is `prefix`.
      const std::uint32_t bit_mask = 1u << (31 - prefix);
      const std::uint32_t s = find_bit_split(first, count, bit_mask);
      if (s > first && s < first + count) split = s;
    }

    const std::uint32_t child = alloc_node();
    alloc_node();  // right child adjacent to left
    bvh.nodes[node].left_or_first = child;
    bvh.nodes[node].count = 0;
    build_range(child, first, split - first, depth + 1);
    build_range(child + 1, split, first + count - split, depth + 1);
    bvh.nodes[node].bounds = Aabb::unite(bvh.nodes[child].bounds,
                                         bvh.nodes[child + 1].bounds);
  }

  std::span<const Aabb> prim_bounds;
  const BuildOptions& options;
  Bvh& bvh;
  std::vector<std::uint32_t> codes_;
};

float compute_sah_cost(const Bvh& bvh) {
  if (bvh.nodes.empty()) return 0.0f;
  const float root_area = bvh.nodes[0].bounds.surface_area();
  if (root_area <= 0.0f) return 0.0f;
  float cost = 0.0f;
  for (const auto& node : bvh.nodes) {
    const float rel = node.bounds.surface_area() / root_area;
    cost += node.is_leaf() ? rel * static_cast<float>(node.count) : rel;
  }
  return cost;
}

}  // namespace

Bvh build_bvh(std::span<const geom::Aabb> prim_bounds,
              const BuildOptions& options) {
  Timer timer;
  Bvh bvh;
  if (prim_bounds.empty()) return bvh;

  for (const auto& b : prim_bounds) bvh.scene_bounds.grow(b);

  LbvhBuilder builder(prim_bounds, options, bvh);
  builder.build();

  bvh.stats.build_seconds = timer.seconds();
  bvh.stats.node_count = static_cast<std::uint32_t>(bvh.nodes.size());
  bvh.stats.leaf_count = 0;
  for (const auto& node : bvh.nodes) {
    if (node.is_leaf()) ++bvh.stats.leaf_count;
  }
  bvh.stats.max_depth = builder.max_depth;
  bvh.stats.sah_cost = compute_sah_cost(bvh);
  return bvh;
}

void Bvh::refit(std::span<const geom::Aabb> prim_bounds) {
  if (prim_bounds.size() != prim_index.size()) {
    throw std::invalid_argument("Bvh::refit: primitive count changed");
  }
  // Children are always allocated after their parent, so one reverse sweep
  // sees every child before its parent.
  for (std::size_t i = nodes.size(); i-- > 0;) {
    BvhNode& node = nodes[i];
    if (node.is_leaf()) {
      geom::Aabb box;
      for (std::uint32_t p = node.left_or_first;
           p < node.left_or_first + node.count; ++p) {
        box.grow(prim_bounds[prim_index[p]]);
      }
      node.bounds = box;
    } else {
      node.bounds = geom::Aabb::unite(nodes[node.left_or_first].bounds,
                                      nodes[node.left_or_first + 1].bounds);
    }
  }
  scene_bounds = nodes.empty() ? geom::Aabb{} : nodes[0].bounds;
}

void Bvh::refit(std::span<const geom::Aabb> prim_bounds,
                std::span<const std::uint8_t> dead) {
  if (prim_bounds.size() != prim_index.size()) {
    throw std::invalid_argument("Bvh::refit: primitive count changed");
  }
  if (dead.size() < prim_index.size()) {
    throw std::invalid_argument(
        "Bvh::refit: dead mask smaller than the primitive count");
  }
  for (std::size_t i = nodes.size(); i-- > 0;) {
    BvhNode& node = nodes[i];
    if (node.is_leaf()) {
      geom::Aabb box;
      bool any_live = false;
      for (std::uint32_t p = node.left_or_first;
           p < node.left_or_first + node.count; ++p) {
        const std::uint32_t prim = prim_index[p];
        if (dead[prim] != 0) continue;
        box.grow(prim_bounds[prim]);
        any_live = true;
      }
      // An all-dead leaf keeps its stale, conservative bounds.
      if (any_live) node.bounds = box;
    } else {
      node.bounds = geom::Aabb::unite(nodes[node.left_or_first].bounds,
                                      nodes[node.left_or_first + 1].bounds);
    }
  }
  scene_bounds = nodes.empty() ? geom::Aabb{} : nodes[0].bounds;
}

std::string Bvh::validate(std::span<const geom::Aabb> prim_bounds) const {
  if (nodes.empty()) {
    return prim_index.empty() ? std::string{}
                              : "empty node list with primitives";
  }
  if (prim_index.size() != prim_bounds.size()) {
    return "prim_index size mismatch";
  }

  std::vector<bool> prim_seen(prim_index.size(), false);
  std::vector<bool> node_seen(nodes.size(), false);
  std::vector<std::uint32_t> stack{0};
  std::ostringstream err;

  while (!stack.empty()) {
    const std::uint32_t idx = stack.back();
    stack.pop_back();
    if (idx >= nodes.size()) {
      err << "node index " << idx << " out of range";
      return err.str();
    }
    if (node_seen[idx]) {
      err << "node " << idx << " reachable twice";
      return err.str();
    }
    node_seen[idx] = true;
    const BvhNode& node = nodes[idx];

    if (node.is_leaf()) {
      if (node.left_or_first + node.count > prim_index.size()) {
        err << "leaf " << idx << " range out of bounds";
        return err.str();
      }
      for (std::uint32_t i = node.left_or_first;
           i < node.left_or_first + node.count; ++i) {
        const std::uint32_t prim = prim_index[i];
        if (prim >= prim_bounds.size()) {
          err << "primitive id " << prim << " out of range";
          return err.str();
        }
        if (prim_seen[prim]) {
          err << "primitive " << prim << " appears in two leaves";
          return err.str();
        }
        prim_seen[prim] = true;
        if (!node.bounds.contains(prim_bounds[prim])) {
          err << "leaf " << idx << " does not contain primitive " << prim;
          return err.str();
        }
      }
    } else {
      const std::uint32_t left = node.left_or_first;
      if (left + 1 >= nodes.size()) {
        err << "internal node " << idx << " child out of range";
        return err.str();
      }
      if (!node.bounds.contains(nodes[left].bounds) ||
          !node.bounds.contains(nodes[left + 1].bounds)) {
        err << "node " << idx << " does not contain its children";
        return err.str();
      }
      stack.push_back(left);
      stack.push_back(left + 1);
    }
  }

  for (std::size_t i = 0; i < prim_seen.size(); ++i) {
    if (!prim_seen[i]) {
      err << "primitive " << i << " not referenced by any leaf";
      return err.str();
    }
  }
  for (std::size_t i = 0; i < node_seen.size(); ++i) {
    if (!node_seen[i]) {
      err << "node " << i << " unreachable from root";
      return err.str();
    }
  }
  return {};
}

}  // namespace rtd::rt
