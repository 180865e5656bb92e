// Lock-free concurrent disjoint-set.
//
// This is the DisjointSet the paper's Algorithm 3 relies on: many GPU/CPU
// threads UNION core points concurrently during cluster formation.  The
// scheme matches the one used by FDBSCAN/ArborX: parent pointers in an
// atomic array, "lower index wins" linking (a root can only ever point to a
// smaller index), and path halving during find.  Monotone-decreasing parent
// pointers make the structure ABA-free and linearizable for unite/same-set.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/stage.hpp"

namespace rtd::dsu {

class AtomicDisjointSet {
 public:
  explicit AtomicDisjointSet(std::size_t n) : parent_(n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      parent_[i].store(i, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::size_t size() const { return parent_.size(); }

  /// Return every element to its own singleton set without reallocating —
  /// the session API reuses one DSU across clustering runs (quiescent only:
  /// no concurrent unite/find during the reset).
  void reset() {
    for (std::uint32_t i = 0; i < parent_.size(); ++i) {
      parent_[i].store(i, std::memory_order_relaxed);
    }
  }

  /// Reset to n singleton sets, growing the parent array when n exceeds the
  /// current capacity (std::atomic is immovable, so growth reallocates — a
  /// documented growth point of the incremental-maintenance path; shrinking
  /// requests keep the larger array and reset only the prefix in use).
  /// Quiescent only, like reset().
  void reset(std::size_t n) {
    if (n > parent_.size()) {
      RTD_STAGE("dsu.grow");
      parent_ = std::vector<std::atomic<std::uint32_t>>(n);
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      parent_[i].store(i, std::memory_order_relaxed);
    }
  }

  /// Current representative of x (with path halving).  Safe to call
  /// concurrently with unite(); the result is a set member that is a root at
  /// some point during the call.
  std::uint32_t find(std::uint32_t x) {
    std::uint32_t cur = x;
    while (true) {
      std::uint32_t p = parent_[cur].load(std::memory_order_acquire);
      if (p == cur) return cur;
      const std::uint32_t gp = parent_[p].load(std::memory_order_acquire);
      if (p != gp) {
        // Path halving: best-effort; failure means someone else improved it.
        parent_[cur].compare_exchange_weak(p, gp,
                                           std::memory_order_release,
                                           std::memory_order_relaxed);
      }
      cur = gp;
    }
  }

  /// Merge the sets of a and b (thread-safe).  Links the larger root under
  /// the smaller so parent pointers only ever decrease.
  void unite(std::uint32_t a, std::uint32_t b) {
    std::uint32_t ra = find(a);
    std::uint32_t rb = find(b);
    while (ra != rb) {
      if (ra > rb) std::swap(ra, rb);  // ra < rb: rb will point to ra
      std::uint32_t expected = rb;
      if (parent_[rb].compare_exchange_strong(expected, ra,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        return;
      }
      // rb was linked elsewhere concurrently; chase the new roots and retry.
      ra = find(ra);
      rb = find(expected);
    }
  }

  [[nodiscard]] bool same_set(std::uint32_t a, std::uint32_t b) {
    // Standard concurrent same-set loop: roots must be re-validated.
    while (true) {
      const std::uint32_t ra = find(a);
      const std::uint32_t rb = find(b);
      if (ra == rb) return true;
      if (parent_[ra].load(std::memory_order_acquire) == ra) return false;
    }
  }

  /// Quiescent canonical labels in [0, k): call only after all unites are
  /// done (sequential epilogue of the clustering algorithms).
  [[nodiscard]] std::vector<std::uint32_t> canonical_labels() {
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

  /// Number of sets (quiescent only).
  [[nodiscard]] std::size_t set_count() {
    std::size_t roots = 0;
    for (std::uint32_t i = 0; i < parent_.size(); ++i) {
      if (find(i) == i) ++roots;
    }
    return roots;
  }

 private:
  std::vector<std::atomic<std::uint32_t>> parent_;
};

}  // namespace rtd::dsu
