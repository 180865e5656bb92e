// Sequential disjoint-set (union-find) with union by rank and full path
// compression (Hopcroft & Ullman [19] in the paper).  The library itself
// does not use it: the tests take it as the ground truth for the
// concurrent variant, and bench_micro_dsu compares the two.
#pragma once

#include <cstdint>
#include <vector>

namespace rtd::dsu {

class DisjointSet {
 public:
  explicit DisjointSet(std::size_t n);

  /// Representative of x's set, with path compression.
  [[nodiscard]] std::uint32_t find(std::uint32_t x);

  /// Merge the sets of a and b; returns true if they were distinct.
  bool unite(std::uint32_t a, std::uint32_t b);

  [[nodiscard]] bool same_set(std::uint32_t a, std::uint32_t b) {
    return find(a) == find(b);
  }

  [[nodiscard]] std::size_t size() const { return parent_.size(); }

  /// Number of disjoint sets remaining.
  [[nodiscard]] std::size_t set_count() const { return set_count_; }

  /// Size of the set containing x.
  [[nodiscard]] std::size_t set_size(std::uint32_t x);

  /// Canonical labels in [0, set_count): equal label <=> same set.
  [[nodiscard]] std::vector<std::uint32_t> canonical_labels();

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint8_t> rank_;
  std::vector<std::uint32_t> size_;
  std::size_t set_count_;
};

}  // namespace rtd::dsu
