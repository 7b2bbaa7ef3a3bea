// Planar homography estimation: RANSAC over minimal 4-point solves,
// then a normalized least-squares DLT refit on the best inlier set.
// The matching service estimates the object's pose in the frame from
// feature correspondences against the reference image.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "common/rng.h"

namespace mar::vision {

struct Point2f {
  float x = 0.0f;
  float y = 0.0f;
};

// Row-major 3x3 homography, maps src -> dst in homogeneous coordinates.
struct Homography {
  std::array<double, 9> h{1, 0, 0, 0, 1, 0, 0, 0, 1};

  [[nodiscard]] Point2f apply(const Point2f& p) const;
  [[nodiscard]] static Homography identity() { return {}; }
};

// Exact DLT from >= 4 correspondences (least squares for more), with
// Hartley normalization. Returns nullopt for degenerate configurations.
[[nodiscard]] std::optional<Homography> homography_dlt(const std::vector<Point2f>& src,
                                                       const std::vector<Point2f>& dst);

// Exact homography through 4 correspondences: the same Hartley-
// normalized DLT system with h8 fixed to 1, solved by 8x8 Gaussian
// elimination instead of a 9x9 eigendecomposition. Returns nullopt
// when a pivot vanishes (repeated or coincident points).
// Agrees with homography_dlt on the same 4 points up to rounding.
[[nodiscard]] std::optional<Homography> homography_4pt(const std::array<Point2f, 4>& src,
                                                       const std::array<Point2f, 4>& dst);

struct RansacParams {
  int iterations = 200;
  float inlier_threshold = 3.0f;  // reprojection distance in pixels
  int min_inliers = 8;
};

struct RansacResult {
  Homography homography;
  std::vector<int> inliers;  // indices into the correspondence list
};

// Hypotheses come from homography_4pt on 4 distinct sampled indices
// (degenerate samples are skipped); the best inlier set is refit with
// homography_dlt.
[[nodiscard]] std::optional<RansacResult> find_homography_ransac(
    const std::vector<Point2f>& src, const std::vector<Point2f>& dst,
    const RansacParams& params, Rng& rng);

}  // namespace mar::vision
