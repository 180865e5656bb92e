// Sequential disjoint-set (union-find, Hopcroft & Ullman [19] in the paper)
// with "lower index wins" linking and full path compression — the
// single-threaded twin of AtomicDisjointSet: in both, the root of every set
// is its smallest member.  Label repair (core/label_repair.hpp) runs its
// union-finds on it, reusing one instance's capacity from batch to batch;
// the tests take it as the ground truth for the concurrent variant, and
// bench_micro_dsu compares the two.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rtd::dsu {

class DisjointSet {
 public:
  explicit DisjointSet(std::size_t n = 0) { reset(n); }

  /// Exactly the n singletons {0}, ..., {n - 1}, reusing the capacity
  /// already held.
  void reset(std::size_t n);

  /// Append one singleton and return its element.
  std::uint32_t add();

  /// Representative of x's set (its smallest member), with path
  /// compression.
  [[nodiscard]] std::uint32_t find(std::uint32_t x) {
    std::uint32_t root = x;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[x] != root) x = std::exchange(parent_[x], root);
    return root;
  }

  /// Merge the sets of a and b; returns true if they were distinct.
  bool unite(std::uint32_t a, std::uint32_t b) {
    std::uint32_t ra = find(a);
    std::uint32_t rb = find(b);
    if (ra == rb) return false;
    if (ra > rb) std::swap(ra, rb);  // the larger root links under the smaller
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    --set_count_;
    return true;
  }

  [[nodiscard]] bool same_set(std::uint32_t a, std::uint32_t b) {
    return find(a) == find(b);
  }

  [[nodiscard]] std::size_t size() const { return parent_.size(); }

  /// Number of disjoint sets remaining.
  [[nodiscard]] std::size_t set_count() const { return set_count_; }

  /// Size of the set containing x.
  [[nodiscard]] std::size_t set_size(std::uint32_t x) {
    return size_[find(x)];
  }

  /// Canonical labels in [0, set_count): equal label <=> same set.
  [[nodiscard]] std::vector<std::uint32_t> canonical_labels();

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
  std::size_t set_count_ = 0;
};

}  // namespace rtd::dsu
