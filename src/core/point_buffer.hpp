// rtd::PointBuffer — the append-only point storage a session shares with
// its snapshots.
//
// Each holder pins (buffer, its own length): the session and every
// snapshot keep a shared_ptr to the buffer plus a span over the prefix they
// saw.  The writer appends past the session's length IN PLACE while the
// capacity lasts, even while snapshots co-own the buffer — the appended
// slots lie past every holder's span, and no field a reader reads is
// written.  When the capacity runs out, the writer copies its prefix into
// a new buffer of twice the needed size and moves on; older holders keep
// the old buffer alive.  Existing points therefore never move under a
// reader, and an append copies only when the buffer grows.
//
// The write cursor only grows.  An append goes in place only when the
// appending prefix ends exactly at the cursor: a writer that rolled its
// length back (a failed mutation) may already have handed the longer
// prefix to a snapshot, so its next append copies into a fresh buffer
// instead of overwriting slots that snapshot reads.
//
// Writer-only: append() must not run concurrently with another append on
// the same buffer.  Readers only dereference their own spans.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "geom/vec3.hpp"

namespace rtd {

class PointBuffer {
 public:
  /// Adopt `points` without copying; the capacity is their count.
  explicit PointBuffer(std::vector<geom::Vec3> points)
      : slots_(std::move(points)), cursor_(slots_.size()) {}

  /// The points written so far.
  [[nodiscard]] std::span<const geom::Vec3> written() const {
    return std::span<const geom::Vec3>(slots_).first(cursor_);
  }

  /// `held` followed by `add`, where `held` is the caller's view of
  /// `buffer` (or any span when `buffer` is null — borrowed points).
  /// Written in place when `held` ends at the write cursor and the
  /// capacity suffices; otherwise `buffer` is replaced by a new buffer of
  /// twice the needed size holding a copy.  Returns the caller's new view.
  /// Every earlier view of the old buffer stays valid and unchanged.
  [[nodiscard]] static std::span<const geom::Vec3> append(
      std::shared_ptr<PointBuffer>& buffer, std::span<const geom::Vec3> held,
      std::span<const geom::Vec3> add) {
    const std::size_t n = held.size() + add.size();
    if (!buffer || held.data() != buffer->slots_.data() ||
        held.size() != buffer->cursor_ || n > buffer->slots_.size()) {
      std::vector<geom::Vec3> grown(std::max<std::size_t>(2 * n, 64));
      std::copy(held.begin(), held.end(), grown.begin());
      auto fresh = std::make_shared<PointBuffer>(std::move(grown));
      fresh->cursor_ = held.size();
      buffer = std::move(fresh);
    }
    std::copy(add.begin(), add.end(),
              buffer->slots_.begin() +
                  static_cast<std::ptrdiff_t>(buffer->cursor_));
    buffer->cursor_ = n;
    return buffer->written();
  }

 private:
  std::vector<geom::Vec3> slots_;  ///< size() is the capacity
  std::size_t cursor_;             ///< slots written so far; only grows
};

}  // namespace rtd
