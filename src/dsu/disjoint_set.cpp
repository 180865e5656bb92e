#include "dsu/disjoint_set.hpp"

#include <algorithm>
#include <numeric>

namespace rtd::dsu {

void DisjointSet::reset(std::size_t n) {
  // resize, not assign: growth stays geometric, so a caller whose sizes
  // creep upward reallocates O(log) times, not every time.
  parent_.resize(n);
  std::iota(parent_.begin(), parent_.end(), 0u);
  size_.resize(n);
  std::fill(size_.begin(), size_.end(), 1u);
  set_count_ = n;
}

std::uint32_t DisjointSet::add() {
  const auto x = static_cast<std::uint32_t>(parent_.size());
  parent_.push_back(x);
  size_.push_back(1);
  ++set_count_;
  return x;
}

std::vector<std::uint32_t> DisjointSet::canonical_labels() {
  std::vector<std::uint32_t> labels(parent_.size());
  std::vector<std::uint32_t> remap(parent_.size(),
                                   static_cast<std::uint32_t>(-1));
  std::uint32_t next = 0;
  for (std::uint32_t i = 0; i < parent_.size(); ++i) {
    const std::uint32_t root = find(i);
    if (remap[root] == static_cast<std::uint32_t>(-1)) remap[root] = next++;
    labels[i] = remap[root];
  }
  return labels;
}

}  // namespace rtd::dsu
