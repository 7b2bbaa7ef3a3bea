#include "vision/homography.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "vision/linalg.h"

namespace mar::vision {
namespace {

// Pivot floor of the 4-point solve (see homography_4pt).
constexpr double kMinPivot = 1e-9;

struct Normalization {
  double cx = 0, cy = 0, scale = 1;
};

// Hartley normalization: translate centroid to origin, mean distance
// sqrt(2). `out` holds pts.size() points.
Normalization normalize_points(std::span<const Point2f> pts, Point2f* out) {
  Normalization n;
  for (const Point2f& p : pts) {
    n.cx += p.x;
    n.cy += p.y;
  }
  n.cx /= static_cast<double>(pts.size());
  n.cy /= static_cast<double>(pts.size());
  double mean_dist = 0.0;
  for (const Point2f& p : pts) {
    mean_dist += std::sqrt((p.x - n.cx) * (p.x - n.cx) + (p.y - n.cy) * (p.y - n.cy));
  }
  mean_dist /= static_cast<double>(pts.size());
  n.scale = mean_dist > 1e-9 ? std::sqrt(2.0) / mean_dist : 1.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    out[i].x = static_cast<float>((pts[i].x - n.cx) * n.scale);
    out[i].y = static_cast<float>((pts[i].y - n.cy) * n.scale);
  }
  return n;
}

std::array<double, 9> matmul3(const std::array<double, 9>& a, const std::array<double, 9>& b) {
  std::array<double, 9> c{};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      double acc = 0.0;
      for (int k = 0; k < 3; ++k) {
        acc += a[static_cast<std::size_t>(i * 3 + k)] * b[static_cast<std::size_t>(k * 3 + j)];
      }
      c[static_cast<std::size_t>(i * 3 + j)] = acc;
    }
  }
  return c;
}

// H = T_d^-1 * Hn * T_s, scaled so h[8] = 1 where that is possible.
// T_s maps src -> normalized: [s, 0, -s*cx; 0, s, -s*cy; 0, 0, 1].
Homography denormalize(const std::array<double, 9>& hn, const Normalization& tn_s,
                       const Normalization& tn_d) {
  const double ss = tn_s.scale, sd = tn_d.scale;
  const std::array<double, 9> ts = {ss, 0, -ss * tn_s.cx, 0, ss, -ss * tn_s.cy, 0, 0, 1};
  const std::array<double, 9> td_inv = {1.0 / sd, 0, tn_d.cx, 0, 1.0 / sd, tn_d.cy, 0, 0, 1};
  Homography result;
  result.h = matmul3(matmul3(td_inv, hn), ts);
  if (std::fabs(result.h[8]) > 1e-12) {
    for (double& v : result.h) v /= result.h[8];
  }
  return result;
}

}  // namespace

Point2f Homography::apply(const Point2f& p) const {
  const double w = h[6] * p.x + h[7] * p.y + h[8];
  if (std::fabs(w) < 1e-12) return Point2f{0.0f, 0.0f};
  return Point2f{static_cast<float>((h[0] * p.x + h[1] * p.y + h[2]) / w),
                 static_cast<float>((h[3] * p.x + h[4] * p.y + h[5]) / w)};
}

std::optional<Homography> homography_dlt(const std::vector<Point2f>& src,
                                         const std::vector<Point2f>& dst) {
  if (src.size() < 4 || src.size() != dst.size()) return std::nullopt;

  std::vector<Point2f> ns(src.size()), nd(dst.size());
  const Normalization tn_s = normalize_points(src, ns.data());
  const Normalization tn_d = normalize_points(dst, nd.data());

  // Build A^T A directly (9x9) from the 2n x 9 DLT system.
  std::vector<double> ata(81, 0.0);
  auto accumulate_row = [&ata](const double row[9]) {
    for (int i = 0; i < 9; ++i) {
      for (int j = 0; j < 9; ++j) ata[static_cast<std::size_t>(i) * 9 + j] += row[i] * row[j];
    }
  };
  for (std::size_t k = 0; k < ns.size(); ++k) {
    const double x = ns[k].x, y = ns[k].y;
    const double u = nd[k].x, v = nd[k].y;
    const double r1[9] = {-x, -y, -1, 0, 0, 0, u * x, u * y, u};
    const double r2[9] = {0, 0, 0, -x, -y, -1, v * x, v * y, v};
    accumulate_row(r1);
    accumulate_row(r2);
  }

  std::vector<double> values, vectors;
  jacobi_eigen_sym(ata, 9, values, vectors);
  int min_idx = 0;
  for (int i = 1; i < 9; ++i) {
    if (values[static_cast<std::size_t>(i)] < values[static_cast<std::size_t>(min_idx)]) {
      min_idx = i;
    }
  }
  std::array<double, 9> hn{};
  for (int i = 0; i < 9; ++i) hn[static_cast<std::size_t>(i)] = vectors[static_cast<std::size_t>(i) * 9 + min_idx];
  if (std::fabs(hn[8]) < 1e-12) {
    // Normalize by the largest element instead.
    double max_abs = 0.0;
    for (double v : hn) max_abs = std::max(max_abs, std::fabs(v));
    if (max_abs < 1e-12) return std::nullopt;
  }

  return denormalize(hn, tn_s, tn_d);
}

std::optional<Homography> homography_4pt(const std::array<Point2f, 4>& src,
                                         const std::array<Point2f, 4>& dst) {
  std::array<Point2f, 4> ns, nd;
  const Normalization tn_s = normalize_points(src, ns.data());
  const Normalization tn_d = normalize_points(dst, nd.data());

  // The DLT system of homography_dlt with h8 = 1: eight equations in
  // h0..h7, right-hand side the negated h8 column. Row-major 8x9 with
  // the right-hand side in column 8.
  double a[8][9];
  for (int k = 0; k < 4; ++k) {
    const double x = ns[static_cast<std::size_t>(k)].x, y = ns[static_cast<std::size_t>(k)].y;
    const double u = nd[static_cast<std::size_t>(k)].x, v = nd[static_cast<std::size_t>(k)].y;
    const double r1[9] = {-x, -y, -1, 0, 0, 0, u * x, u * y, -u};
    const double r2[9] = {0, 0, 0, -x, -y, -1, v * x, v * y, -v};
    std::copy(r1, r1 + 9, a[2 * k]);
    std::copy(r2, r2 + 9, a[2 * k + 1]);
  }

  // Gaussian elimination with partial pivoting. Normalized coordinates
  // keep every entry O(1), so an absolute pivot floor separates
  // degenerate samples (repeated or coincident points) from real ones.
  for (int col = 0; col < 8; ++col) {
    int pivot = col;
    for (int r = col + 1; r < 8; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    if (std::fabs(a[pivot][col]) < kMinPivot) return std::nullopt;
    if (pivot != col) std::swap(a[pivot], a[col]);
    for (int r = col + 1; r < 8; ++r) {
      const double f = a[r][col] / a[col][col];
      if (f == 0.0) continue;
      for (int c = col; c < 9; ++c) a[r][c] -= f * a[col][c];
    }
  }
  std::array<double, 9> hn{};
  hn[8] = 1.0;
  for (int r = 7; r >= 0; --r) {
    double acc = a[r][8];
    for (int c = r + 1; c < 8; ++c) acc -= a[r][c] * hn[static_cast<std::size_t>(c)];
    hn[static_cast<std::size_t>(r)] = acc / a[r][r];
  }
  return denormalize(hn, tn_s, tn_d);
}

std::optional<RansacResult> find_homography_ransac(const std::vector<Point2f>& src,
                                                   const std::vector<Point2f>& dst,
                                                   const RansacParams& params, Rng& rng) {
  if (src.size() < 4 || src.size() != dst.size()) return std::nullopt;
  const auto n = static_cast<std::int64_t>(src.size());

  std::vector<int> best_inliers;
  for (int iter = 0; iter < params.iterations; ++iter) {
    // Sample 4 distinct indices.
    int idx[4];
    for (int i = 0; i < 4; ++i) {
      bool unique = true;
      do {
        idx[i] = static_cast<int>(rng.uniform_int(0, n - 1));
        unique = true;
        for (int j = 0; j < i; ++j) {
          if (idx[j] == idx[i]) unique = false;
        }
      } while (!unique);
    }
    std::array<Point2f, 4> s4, d4;
    for (int i = 0; i < 4; ++i) {
      s4[static_cast<std::size_t>(i)] = src[static_cast<std::size_t>(idx[i])];
      d4[static_cast<std::size_t>(i)] = dst[static_cast<std::size_t>(idx[i])];
    }
    const auto h = homography_4pt(s4, d4);
    if (!h) continue;

    std::vector<int> inliers;
    for (std::size_t i = 0; i < src.size(); ++i) {
      const Point2f proj = h->apply(src[i]);
      const float dx = proj.x - dst[i].x;
      const float dy = proj.y - dst[i].y;
      if (dx * dx + dy * dy <=
          params.inlier_threshold * params.inlier_threshold) {
        inliers.push_back(static_cast<int>(i));
      }
    }
    if (inliers.size() > best_inliers.size()) best_inliers = std::move(inliers);
  }

  if (static_cast<int>(best_inliers.size()) < params.min_inliers) return std::nullopt;

  // Refit on all inliers.
  std::vector<Point2f> s_in, d_in;
  for (int i : best_inliers) {
    s_in.push_back(src[static_cast<std::size_t>(i)]);
    d_in.push_back(dst[static_cast<std::size_t>(i)]);
  }
  const auto refined = homography_dlt(s_in, d_in);
  if (!refined) return std::nullopt;

  RansacResult result;
  result.homography = *refined;
  result.inliers = std::move(best_inliers);
  return result;
}

}  // namespace mar::vision
