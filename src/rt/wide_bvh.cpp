// Binary→wide BVH collapse, refit and validation.
#include "rt/wide_bvh.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

namespace rtd::rt {

namespace {

/// Reset a lane to the inverted empty box with zeroed topology, so unused
/// lanes are inert no matter what a (buggy) traversal reads from them.
void clear_lane(WideBvhNode& node, unsigned lane) {
  for (int axis = 0; axis < 3; ++axis) {
    node.lo[axis][lane] = std::numeric_limits<float>::max();
    node.hi[axis][lane] = std::numeric_limits<float>::lowest();
  }
  node.child[lane] = 0;
  node.count[lane] = 0;
}

void set_lane_bounds(WideBvhNode& node, unsigned lane,
                     const geom::Aabb& bounds) {
  node.lo[0][lane] = bounds.lo.x;
  node.lo[1][lane] = bounds.lo.y;
  node.lo[2][lane] = bounds.lo.z;
  node.hi[0][lane] = bounds.hi.x;
  node.hi[1][lane] = bounds.hi.y;
  node.hi[2][lane] = bounds.hi.z;
}

// A lane leaf holds one binary leaf (at most kLeafSize primitives) or a
// whole subtree of at most kWideLeafSize; both fit the 16-bit lane count.
static_assert(kLeafSize <= 0xffff && kWideLeafSize <= 0xffff);

struct Collapser {
  const Bvh& source;
  WideBvh& out;
  /// Per binary node: the contiguous prim_index range its subtree covers
  /// (children partition their parent's range in both builders).
  std::vector<std::uint32_t> subtree_first;
  std::vector<std::uint32_t> subtree_count;

  void compute_subtree_ranges() {
    const std::size_t n = source.nodes.size();
    subtree_first.resize(n);
    subtree_count.resize(n);
    // Children are allocated after their parent, so one reverse sweep
    // computes counts bottom-up...
    for (std::size_t i = n; i-- > 0;) {
      const BvhNode& node = source.nodes[i];
      subtree_count[i] = node.is_leaf()
                             ? node.count
                             : subtree_count[node.left_or_first] +
                                   subtree_count[node.left_or_first + 1];
    }
    // ...and one forward sweep assigns first offsets top-down.
    subtree_first[0] = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const BvhNode& node = source.nodes[i];
      if (node.is_leaf()) continue;
      subtree_first[node.left_or_first] = subtree_first[i];
      subtree_first[node.left_or_first + 1] =
          subtree_first[i] + subtree_count[node.left_or_first];
    }
  }

  /// A binary node folds into one leaf lane when its whole subtree fits
  /// the lane width (binary leaves always do — they cannot be split).
  [[nodiscard]] bool lane_leaf(std::uint32_t node_id) const {
    return source.nodes[node_id].is_leaf() ||
           subtree_count[node_id] <= kWideLeafSize;
  }

  /// Cut up to kWideBvhArity binary subtrees under `binary_node` and emit
  /// one wide node for them; recurse into the internal cuts.
  std::uint32_t emit(std::uint32_t binary_node, std::uint32_t depth) {
    out.max_depth = std::max(out.max_depth, depth);

    // Gather the cut set: start from the node (or its two children) and
    // greedily expand the largest-area expandable member until the node is
    // full or only leaf lanes remain.  Larger boxes are tested by more
    // queries, so flattening them first removes the most pop/branch work.
    std::uint32_t cut[kWideBvhArity];
    std::uint32_t cut_size = 0;
    const BvhNode& root = source.nodes[binary_node];
    if (lane_leaf(binary_node)) {
      cut[cut_size++] = binary_node;
    } else {
      cut[cut_size++] = root.left_or_first;
      cut[cut_size++] = root.left_or_first + 1;
    }
    for (;;) {
      std::uint32_t best = kWideBvhArity;  // index into cut[], not a node id
      float best_area = -1.0f;
      for (std::uint32_t i = 0; i < cut_size; ++i) {
        if (lane_leaf(cut[i])) continue;
        const float area = source.nodes[cut[i]].bounds.surface_area();
        if (area > best_area) {
          best_area = area;
          best = i;
        }
      }
      if (best == kWideBvhArity || cut_size == kWideBvhArity) break;
      const std::uint32_t left = source.nodes[cut[best]].left_or_first;
      cut[best] = left;
      cut[cut_size++] = left + 1;
    }

    // Sort the cut by centroid along the widest axis of its union, so a
    // directed walk can visit lanes front-to-back (rt/traversal.hpp).
    geom::Aabb united;
    for (std::uint32_t i = 0; i < cut_size; ++i) {
      united.grow(source.nodes[cut[i]].bounds);
    }
    const int axis = united.widest_axis();
    const auto centroid = [&](std::uint32_t node_id) {
      return source.nodes[node_id].bounds.center()[
          static_cast<std::size_t>(axis)];
    };
    // Insertion sort: at most 8 elements, and std::sort on the fixed array
    // trips GCC's array-bounds analysis (its insertion threshold is 16).
    for (std::uint32_t i = 1; i < cut_size; ++i) {
      const std::uint32_t v = cut[i];
      const float c = centroid(v);
      std::uint32_t j = i;
      while (j > 0 && centroid(cut[j - 1]) > c) {
        cut[j] = cut[j - 1];
        --j;
      }
      cut[j] = v;
    }

    const auto wide_index = static_cast<std::uint32_t>(out.nodes.size());
    out.nodes.emplace_back();
    out.source_node.emplace_back();
    {
      WideBvhNode& node = out.nodes[wide_index];
      node.child_count = static_cast<std::uint8_t>(cut_size);
      node.sort_axis = static_cast<std::uint8_t>(axis);
      for (unsigned lane = 0; lane < kWideBvhArity; ++lane) {
        clear_lane(node, lane);
      }
    }

    for (std::uint32_t lane = 0; lane < cut_size; ++lane) {
      const std::uint32_t src = cut[lane];
      const BvhNode& member = source.nodes[src];
      out.source_node[wide_index][lane] = src;
      set_lane_bounds(out.nodes[wide_index], lane, member.bounds);
      if (lane_leaf(src)) {
        out.nodes[wide_index].child[lane] = subtree_first[src];
        out.nodes[wide_index].count[lane] =
            static_cast<std::uint16_t>(subtree_count[src]);
      } else {
        // Recursion reallocates out.nodes — re-index after the call.
        const std::uint32_t child_node = emit(src, depth + 1);
        out.nodes[wide_index].child[lane] = child_node;
        out.nodes[wide_index].count[lane] = 0;
      }
    }
    return wide_index;
  }
};

}  // namespace

WideBvh collapse_bvh(const Bvh& source) {
  WideBvh wide;
  if (source.empty()) return wide;
  wide.prim_index = source.prim_index;
  wide.scene_bounds = source.scene_bounds;
  wide.nodes.reserve(source.nodes.size() / 8 + 1);
  wide.source_node.reserve(source.nodes.size() / 8 + 1);
  Collapser collapser{source, wide, {}, {}};
  collapser.compute_subtree_ranges();
  collapser.emit(0, 1);
  return wide;
}

void WideBvh::refit_from(const Bvh& source) {
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    WideBvhNode& node = nodes[n];
    for (unsigned lane = 0; lane < node.child_count; ++lane) {
      set_lane_bounds(node, lane,
                      source.nodes[source_node[n][lane]].bounds);
    }
  }
  scene_bounds = source.scene_bounds;
}

std::string WideBvh::validate(
    std::span<const geom::Aabb> prim_bounds) const {
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
    const WideBvhNode& node = nodes[idx];
    if (node.child_count == 0 || node.child_count > kWideBvhArity) {
      err << "node " << idx << " has " << static_cast<int>(node.child_count)
          << " children";
      return err.str();
    }

    for (unsigned lane = 0; lane < node.child_count; ++lane) {
      const geom::Aabb lane_bounds{
          {node.lo[0][lane], node.lo[1][lane], node.lo[2][lane]},
          {node.hi[0][lane], node.hi[1][lane], node.hi[2][lane]}};
      if (node.lane_is_leaf(lane)) {
        const std::uint32_t first = node.child[lane];
        const std::uint32_t count = node.count[lane];
        if (first + count > prim_index.size()) {
          err << "node " << idx << " lane " << lane << " range out of bounds";
          return err.str();
        }
        for (std::uint32_t i = first; i < first + count; ++i) {
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
          if (!lane_bounds.contains(prim_bounds[prim])) {
            err << "node " << idx << " lane " << lane
                << " does not contain primitive " << prim;
            return err.str();
          }
        }
      } else {
        const std::uint32_t child = node.child[lane];
        if (child >= nodes.size()) {
          err << "node " << idx << " lane " << lane << " child out of range";
          return err.str();
        }
        // The lane bounds must contain every child lane's bounds.
        const WideBvhNode& sub = nodes[child];
        for (unsigned cl = 0; cl < sub.child_count; ++cl) {
          const geom::Aabb cl_bounds{
              {sub.lo[0][cl], sub.lo[1][cl], sub.lo[2][cl]},
              {sub.hi[0][cl], sub.hi[1][cl], sub.hi[2][cl]}};
          if (!lane_bounds.contains(cl_bounds)) {
            err << "node " << idx << " lane " << lane
                << " does not contain child node " << child << " lane " << cl;
            return err.str();
          }
        }
        stack.push_back(child);
      }
    }
    // Unused lanes must be inert (empty bounds fail every overlap test).
    for (unsigned lane = node.child_count; lane < kWideBvhArity; ++lane) {
      const geom::Aabb lane_bounds{
          {node.lo[0][lane], node.lo[1][lane], node.lo[2][lane]},
          {node.hi[0][lane], node.hi[1][lane], node.hi[2][lane]}};
      if (!lane_bounds.is_empty()) {
        err << "node " << idx << " unused lane " << lane << " is not empty";
        return err.str();
      }
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
