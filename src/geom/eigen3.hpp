// Closed-form eigendecomposition of symmetric 3x3 matrices.
//
// Used by the point-cloud applications the paper motivates in §VI-A
// ("computing normals, filtering point cloud noise"): the normal of a local
// neighborhood is the eigenvector of its covariance matrix with the
// smallest eigenvalue.
#pragma once

#include <array>

#include "geom/vec3.hpp"

namespace rtd::geom {

/// Symmetric 3x3 matrix stored as the six unique entries.
struct Sym3 {
  float xx = 0, xy = 0, xz = 0, yy = 0, yz = 0, zz = 0;

  /// Covariance accumulation helper: adds the outer product of (p - mean).
  void add_outer(const Vec3& d) {
    xx += d.x * d.x;
    xy += d.x * d.y;
    xz += d.x * d.z;
    yy += d.y * d.y;
    yz += d.y * d.z;
    zz += d.z * d.z;
  }

  [[nodiscard]] Vec3 multiply(const Vec3& v) const {
    return {xx * v.x + xy * v.y + xz * v.z,
            xy * v.x + yy * v.y + yz * v.z,
            xz * v.x + yz * v.y + zz * v.z};
  }

  [[nodiscard]] float trace() const { return xx + yy + zz; }
};

struct Eigen3 {
  /// Eigenvalues in ascending order.
  std::array<float, 3> values{};
  /// Unit eigenvectors, columns matching `values`.
  std::array<Vec3, 3> vectors{};
};

/// Eigendecomposition via the trigonometric (Cardano) closed form for the
/// eigenvalues plus cross-product extraction for the eigenvectors.
/// Exact for diagonal/degenerate inputs; accurate to ~1e-5 relative for
/// well-conditioned covariance matrices (float).
Eigen3 eigen_symmetric3(const Sym3& m);

/// Covariance matrix of a point set around its mean; returns point count.
/// The caller typically feeds neighborhoods from rt_knn or a
/// NeighborIndex ε-query.
template <typename Iter>
Sym3 covariance3(Iter begin, Iter end, Vec3* mean_out = nullptr) {
  Vec3 mean{};
  std::size_t n = 0;
  for (Iter it = begin; it != end; ++it) {
    mean += *it;
    ++n;
  }
  if (n == 0) return {};
  mean *= 1.0f / static_cast<float>(n);
  if (mean_out != nullptr) *mean_out = mean;
  Sym3 cov;
  for (Iter it = begin; it != end; ++it) {
    cov.add_outer(*it - mean);
  }
  const float inv = 1.0f / static_cast<float>(n);
  cov.xx *= inv;
  cov.xy *= inv;
  cov.xz *= inv;
  cov.yy *= inv;
  cov.yz *= inv;
  cov.zz *= inv;
  return cov;
}

/// Surface normal of a neighborhood: unit eigenvector of the covariance
/// with the smallest eigenvalue.  Returns (0,0,0) for degenerate (<3 point)
/// neighborhoods.
Vec3 normal_from_covariance(const Sym3& cov);

/// Surface variation (Pauly et al.): lambda_0 / (lambda_0+lambda_1+lambda_2)
/// in [0, 1/3]; ~0 on flat surfaces, large at outliers/edges.  Used by the
/// point-cloud denoising example.
float surface_variation(const Sym3& cov);

}  // namespace rtd::geom
