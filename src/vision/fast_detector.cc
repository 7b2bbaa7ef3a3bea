#include "vision/fast_detector.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace mar::vision {
namespace {

// Bresenham circle of radius 3 (the classic FAST ring).
constexpr int kRing = 16;
constexpr int kRingDx[kRing] = {0, 1, 2, 3, 3, 3, 2, 1, 0, -1, -2, -3, -3, -3, -2, -1};
constexpr int kRingDy[kRing] = {-3, -3, -2, -1, 0, 1, 2, 3, 3, 3, 2, 1, 0, -1, -2, -3};

struct Corner {
  int x;
  int y;
  float score;
};

// True when >= arc contiguous ring pixels are all brighter (sign=+1)
// or all darker (sign=-1) than center +/- threshold.
bool has_arc(const Image& img, int x, int y, float threshold, int arc) {
  const float c = img.at(x, y);
  // Exact pre-test on the compass pixels (ring indices 0, 4, 8, 12):
  // any `arc` contiguous ring pixels include at least arc/4 of them
  // (an arc longer than the ring needs all 16 pixels, so all four), so
  // with fewer bright and fewer dark compass pixels no arc exists.
  const int need = std::min(arc, kRing) / 4;
  int compass_bright = 0, compass_dark = 0;
  for (int k = 0; k < kRing; k += 4) {
    const float v = img.at(x + kRingDx[k], y + kRingDy[k]);
    compass_bright += v > c + threshold ? 1 : 0;
    compass_dark += v < c - threshold ? 1 : 0;
  }
  if (compass_bright < need && compass_dark < need) return false;
  // Unrolled circular scan over 2*kRing to handle wrap-around.
  int run_bright = 0, run_dark = 0;
  int best_bright = 0, best_dark = 0;
  for (int i = 0; i < 2 * kRing; ++i) {
    const int k = i % kRing;
    const float v = img.at(x + kRingDx[k], y + kRingDy[k]);
    if (v > c + threshold) {
      ++run_bright;
      run_dark = 0;
    } else if (v < c - threshold) {
      ++run_dark;
      run_bright = 0;
    } else {
      run_bright = 0;
      run_dark = 0;
    }
    best_bright = std::max(best_bright, run_bright);
    best_dark = std::max(best_dark, run_dark);
    if (best_bright >= arc || best_dark >= arc) return true;
  }
  return false;
}

float corner_score(const Image& img, int x, int y) {
  const float c = img.at(x, y);
  float score = 0.0f;
  for (int k = 0; k < kRing; ++k) {
    score += std::fabs(img.at(x + kRingDx[k], y + kRingDy[k]) - c);
  }
  return score;
}

// Intensity-centroid orientation (Rosin moments) within `radius`.
float orientation_at(const Image& img, int x, int y, int radius) {
  float m01 = 0.0f, m10 = 0.0f;
  for (int dy = -radius; dy <= radius; ++dy) {
    for (int dx = -radius; dx <= radius; ++dx) {
      if (dx * dx + dy * dy > radius * radius) continue;
      const float v = img.at_clamped(x + dx, y + dy);
      m10 += static_cast<float>(dx) * v;
      m01 += static_cast<float>(dy) * v;
    }
  }
  return std::atan2(m01, m10);
}

// The fixed sampling pattern: kDescriptorDim point pairs inside the
// patch, generated once from a deterministic stream.
struct PairPattern {
  float ax[kDescriptorDim];
  float ay[kDescriptorDim];
  float bx[kDescriptorDim];
  float by[kDescriptorDim];
};

const PairPattern& pattern(int radius) {
  static const PairPattern p = [radius] {
    PairPattern out;
    Rng rng(0xFA57);
    const auto r = static_cast<double>(radius);
    for (int i = 0; i < kDescriptorDim; ++i) {
      // Gaussian-concentrated pairs (BRIEF's G(0, patch/5) pattern).
      auto clamp_r = [r](double v) { return std::clamp(v, -r, r); };
      out.ax[i] = static_cast<float>(clamp_r(rng.gaussian(0.0, r / 3.0)));
      out.ay[i] = static_cast<float>(clamp_r(rng.gaussian(0.0, r / 3.0)));
      out.bx[i] = static_cast<float>(clamp_r(rng.gaussian(0.0, r / 3.0)));
      out.by[i] = static_cast<float>(clamp_r(rng.gaussian(0.0, r / 3.0)));
    }
    return out;
  }();
  return p;
}

Descriptor compute_descriptor(const Image& img, float x, float y, float angle, int radius) {
  const PairPattern& p = pattern(radius);
  const float ca = std::cos(angle);
  const float sa = std::sin(angle);
  Descriptor desc{};
  for (int i = 0; i < kDescriptorDim; ++i) {
    // Rotate the sampling pairs into the keypoint frame.
    const float axr = ca * p.ax[i] - sa * p.ay[i];
    const float ayr = sa * p.ax[i] + ca * p.ay[i];
    const float bxr = ca * p.bx[i] - sa * p.by[i];
    const float byr = sa * p.bx[i] + ca * p.by[i];
    desc[static_cast<std::size_t>(i)] = img.sample(x + axr, y + ayr) - img.sample(x + bxr, y + byr);
  }
  // L2 normalization makes the descriptor compatible with the
  // library's distance-based matcher and Fisher encoding.
  float norm = 0.0f;
  for (float v : desc) norm += v * v;
  norm = std::sqrt(norm);
  if (norm > 1e-9f) {
    for (float& v : desc) v /= norm;
  }
  return desc;
}

}  // namespace

FeatureList FastDetector::detect(const Image& image) const {
  FeatureList features;
  if (image.width() < 16 || image.height() < 16) return features;

  // Light smoothing stabilizes both the ring test and the descriptor.
  const Image smoothed = gaussian_blur(image, 1.0f);

  std::vector<Corner> corners;
  const int border = std::max(4, params_.patch_radius);
  for (int y = border; y < smoothed.height() - border; ++y) {
    for (int x = border; x < smoothed.width() - border; ++x) {
      if (!has_arc(smoothed, x, y, params_.threshold, params_.arc_length)) continue;
      corners.push_back(Corner{x, y, corner_score(smoothed, x, y)});
    }
  }

  // Non-maximum suppression on a coarse grid.
  std::sort(corners.begin(), corners.end(),
            [](const Corner& a, const Corner& b) { return a.score > b.score; });
  std::vector<Corner> kept;
  const int r2 = params_.nms_radius * params_.nms_radius;
  for (const Corner& c : corners) {
    bool suppressed = false;
    for (const Corner& k : kept) {
      const int dx = c.x - k.x;
      const int dy = c.y - k.y;
      if (dx * dx + dy * dy <= r2) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) {
      kept.push_back(c);
      if (params_.max_features > 0 &&
          static_cast<int>(kept.size()) >= params_.max_features) {
        break;
      }
    }
  }

  features.reserve(kept.size());
  for (const Corner& c : kept) {
    Feature f;
    f.keypoint.x = static_cast<float>(c.x);
    f.keypoint.y = static_cast<float>(c.y);
    f.keypoint.scale = 1.0f;
    f.keypoint.response = c.score;
    f.keypoint.angle =
        orientation_at(smoothed, c.x, c.y, params_.patch_radius);
    f.descriptor = compute_descriptor(smoothed, f.keypoint.x, f.keypoint.y, f.keypoint.angle,
                                      params_.patch_radius);
    features.push_back(std::move(f));
  }
  return features;
}

}  // namespace mar::vision
