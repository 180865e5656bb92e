// CopyOnWrite — one value several index versions may share.
//
// NeighborIndex::clone() makes a new version that shares its built trees
// with the source.  The rule both versions must follow: once a value is
// shared, whichever version mutates it first copies it and mutates the
// copy.  This holder keeps that rule in one place — share() marks the value
// before the source is copy-constructed (the copy inherits the mark), and
// mut() copies a marked value before handing it out.  Reads never copy.
//
// Single-writer: share() and mut() are writer operations on their holder.
// Concurrent const readers of another version are safe, because a shared
// value is never written in place.
#pragma once

#include <memory>
#include <utility>

namespace rtd {

template <typename T>
class CopyOnWrite {
 public:
  explicit CopyOnWrite(std::shared_ptr<T> value) : value_(std::move(value)) {}

  [[nodiscard]] const T& operator*() const { return *value_; }
  [[nodiscard]] const T* operator->() const { return value_.get(); }

  /// Mark the value shared: call on the source of a clone, before copying
  /// the holder.
  void share() { shared_ = true; }

  /// The value for a mutation: copied first while it is shared.
  [[nodiscard]] T& mut() {
    if (shared_) {
      value_ = std::make_shared<T>(*value_);
      shared_ = false;
    }
    return *value_;
  }

 private:
  std::shared_ptr<T> value_;
  bool shared_ = false;  ///< another version holds value_ too
};

}  // namespace rtd
