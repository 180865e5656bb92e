#include "core/api.hpp"

namespace rtd {

ClusterResult cluster(std::span<const geom::Vec3> points, float eps,
                      std::uint32_t min_pts, index::IndexKind backend) {
  // A throwaway BORROWING session: no copy of the caller's points.  The
  // result is MOVED out — no O(n) copies on the way back.
  Clusterer session =
      Clusterer::borrowing(points, Options().with_backend(backend));
  (void)session.run(eps, min_pts);
  return session.take_result();
}

}  // namespace rtd
