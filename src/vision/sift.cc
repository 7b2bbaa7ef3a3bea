#include "vision/sift.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>

#include "common/parallel.h"
#include "telemetry/profiler.h"

namespace mar::vision {
namespace {

constexpr float kPi = 3.14159265358979323846f;
// Assumed blur of the input image (Lowe 2004).
constexpr float kInputSigma = 0.5f;
constexpr int kOrientationBins = 36;
constexpr int kDescWidth = 4;   // 4x4 spatial cells
constexpr int kDescBins = 8;    // orientation bins per cell
constexpr float kDescMagThreshold = 0.2f;

struct ScaleSpace {
  // gauss[o][i]: i-th Gaussian image of octave o (s+3 per octave).
  std::vector<std::vector<Image>> gauss;
  // dog[o][i] = gauss[o][i+1] - gauss[o][i] (s+2 per octave).
  std::vector<std::vector<Image>> dog;
  float base_scale = 1.0f;  // pixel scale of octave 0 relative to input
};

ScaleSpace build_scale_space(const Image& input, const SiftParams& p) {
  // The pyramid is sift's 1.6->4.8 GB story (Fig. 2/5): every Gaussian
  // and DoG plane allocated below lands in the profiler under this
  // stage via the Image constructor hook.
  telemetry::ProfScope prof("sift_pyramid");
  ScaleSpace ss;
  Image base = input;
  ss.base_scale = 1.0f;
  float start_sigma = kInputSigma;
  if (p.upsample_first_octave) {
    base = double_size(input);
    ss.base_scale = 0.5f;
    start_sigma = kInputSigma * 2.0f;
  }
  // Bring the base image to base_sigma.
  const float diff = std::sqrt(std::max(p.base_sigma * p.base_sigma - start_sigma * start_sigma,
                                        0.01f));
  base = gaussian_blur(base, diff);

  const int s = p.scales_per_octave;
  const float k = std::pow(2.0f, 1.0f / static_cast<float>(s));
  int octaves = p.octaves;
  {
    // Cap octaves so the smallest image stays >= 16 px.
    int max_oct = 1;
    int dim = std::min(base.width(), base.height());
    while (dim / 2 >= 16) {
      dim /= 2;
      ++max_oct;
    }
    octaves = std::min(octaves, max_oct);
  }

  Image current = std::move(base);
  for (int o = 0; o < octaves; ++o) {
    std::vector<Image> gauss;
    gauss.reserve(static_cast<std::size_t>(s + 3));
    gauss.push_back(std::move(current));
    float sigma = p.base_sigma;
    for (int i = 1; i < s + 3; ++i) {
      const float next_sigma = sigma * k;
      // Incremental blur: sigma_inc^2 = next^2 - current^2.
      const float inc = std::sqrt(std::max(next_sigma * next_sigma - sigma * sigma, 1e-6f));
      gauss.push_back(gaussian_blur(gauss.back(), inc));
      sigma = next_sigma;
    }
    std::vector<Image> dog;
    dog.reserve(static_cast<std::size_t>(s + 2));
    for (int i = 0; i < s + 2; ++i) dog.push_back(subtract(gauss[i + 1], gauss[i]));

    if (o + 1 < octaves) current = half_size(gauss[static_cast<std::size_t>(s)]);
    ss.gauss.push_back(std::move(gauss));
    ss.dog.push_back(std::move(dog));
  }
  return ss;
}

// Solve A * x = b for 3x3 A via Cramer's rule; returns false if singular.
bool solve3(const float a[3][3], const float b[3], float x[3]) {
  const float det = a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1]) -
                    a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0]) +
                    a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]);
  if (std::fabs(det) < 1e-12f) return false;
  const float inv = 1.0f / det;
  x[0] = inv * (b[0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1]) -
                a[0][1] * (b[1] * a[2][2] - a[1][2] * b[2]) +
                a[0][2] * (b[1] * a[2][1] - a[1][1] * b[2]));
  x[1] = inv * (a[0][0] * (b[1] * a[2][2] - a[1][2] * b[2]) -
                b[0] * (a[1][0] * a[2][2] - a[1][2] * a[2][0]) +
                a[0][2] * (a[1][0] * b[2] - b[1] * a[2][0]));
  x[2] = inv * (a[0][0] * (a[1][1] * b[2] - b[1] * a[2][1]) -
                a[0][1] * (a[1][0] * b[2] - b[1] * a[2][0]) +
                b[0] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]));
  return true;
}

// Quadratic refinement of an extremum at (x, y, layer). Returns false
// to reject. On success fills the refined keypoint location/scale.
bool refine_extremum(const std::vector<Image>& dog, int s, float base_sigma, int octave,
                     float base_scale, int x, int y, int layer, const SiftParams& p,
                     Keypoint& out) {
  const int w = dog[0].width();
  const int h = dog[0].height();
  float dx = 0, dy = 0, ds = 0;
  float contrast = 0;
  for (int iter = 0; iter < 5; ++iter) {
    const Image& d0 = dog[static_cast<std::size_t>(layer - 1)];
    const Image& d1 = dog[static_cast<std::size_t>(layer)];
    const Image& d2 = dog[static_cast<std::size_t>(layer + 1)];

    const float gx = 0.5f * (d1.at(x + 1, y) - d1.at(x - 1, y));
    const float gy = 0.5f * (d1.at(x, y + 1) - d1.at(x, y - 1));
    const float gs = 0.5f * (d2.at(x, y) - d0.at(x, y));

    const float dxx = d1.at(x + 1, y) - 2 * d1.at(x, y) + d1.at(x - 1, y);
    const float dyy = d1.at(x, y + 1) - 2 * d1.at(x, y) + d1.at(x, y - 1);
    const float dss = d2.at(x, y) - 2 * d1.at(x, y) + d0.at(x, y);
    const float dxy = 0.25f * (d1.at(x + 1, y + 1) - d1.at(x - 1, y + 1) -
                               d1.at(x + 1, y - 1) + d1.at(x - 1, y - 1));
    const float dxs = 0.25f * (d2.at(x + 1, y) - d2.at(x - 1, y) -
                               d0.at(x + 1, y) + d0.at(x - 1, y));
    const float dys = 0.25f * (d2.at(x, y + 1) - d2.at(x, y - 1) -
                               d0.at(x, y + 1) + d0.at(x, y - 1));

    const float hess[3][3] = {{dxx, dxy, dxs}, {dxy, dyy, dys}, {dxs, dys, dss}};
    const float grad[3] = {gx, gy, gs};
    float offset[3];
    if (!solve3(hess, grad, offset)) return false;
    dx = -offset[0];
    dy = -offset[1];
    ds = -offset[2];

    if (std::fabs(dx) < 0.5f && std::fabs(dy) < 0.5f && std::fabs(ds) < 0.5f) {
      contrast = d1.at(x, y) + 0.5f * (gx * dx + gy * dy + gs * ds);
      // Edge rejection on the 2x2 spatial Hessian.
      const float tr = dxx + dyy;
      const float det = dxx * dyy - dxy * dxy;
      const float r = p.edge_threshold;
      if (det <= 0.0f || tr * tr * r >= (r + 1) * (r + 1) * det) return false;
      if (std::fabs(contrast) < p.contrast_threshold / static_cast<float>(s)) return false;

      const float oct_scale = base_scale * std::pow(2.0f, static_cast<float>(octave));
      out.x = (static_cast<float>(x) + dx) * oct_scale;
      out.y = (static_cast<float>(y) + dy) * oct_scale;
      out.scale = base_sigma *
                  std::pow(2.0f, (static_cast<float>(layer) + ds) / static_cast<float>(s)) *
                  oct_scale;
      out.response = std::fabs(contrast);
      out.octave = octave;
      return true;
    }
    x += static_cast<int>(std::round(dx));
    y += static_cast<int>(std::round(dy));
    layer += static_cast<int>(std::round(ds));
    if (x < 1 || x >= w - 1 || y < 1 || y >= h - 1 || layer < 1 || layer > s) return false;
  }
  return false;
}

// Window half-sizes (pixels around the rounded keypoint position) of
// the orientation histogram and of the descriptor.
int orientation_radius(float sigma_rel) {
  return std::max(1, static_cast<int>(std::round(4.5f * sigma_rel)));
}
int descriptor_radius(float sigma_rel) {
  const float cell = 3.0f * sigma_rel;  // histogram cell width in pixels
  return static_cast<int>(std::round(cell * std::sqrt(2.0f) * (kDescWidth + 1) * 0.5f));
}

// Central-difference gradient magnitude and angle of one Gaussian
// level, computed once per pixel and read by every orientation
// histogram and descriptor whose window covers that pixel. Only the
// pixels some window reads are filled (see mark/fill); the rest
// hold stale values that nothing reads.
struct GradientPlanes {
  int width = 0;
  int height = 0;
  std::vector<float> mag;
  std::vector<float> ang;  // atan2(gy, gx), [-pi, pi]
  std::vector<std::uint8_t> marked;

  GradientPlanes(int w, int h)
      : width(w),
        height(h),
        mag(static_cast<std::size_t>(w) * static_cast<std::size_t>(h)),
        ang(mag.size()),
        marked(mag.size()) {
    telemetry::profile_alloc_as("sift_gradients",
                                mag.size() * (2 * sizeof(float) + sizeof(std::uint8_t)));
  }
  [[nodiscard]] std::size_t index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(width) +
           static_cast<std::size_t>(x);
  }
  // Mark the square window of half-size `radius` around (cx, cy),
  // clipped to the pixels with a central difference: [1, w-2]x[1, h-2].
  void mark(int cx, int cy, int radius) {
    const int x0 = std::max(1, cx - radius), x1 = std::min(width - 2, cx + radius);
    const int y0 = std::max(1, cy - radius), y1 = std::min(height - 2, cy + radius);
    if (x0 > x1) return;
    for (int y = y0; y <= y1; ++y) {
      std::fill_n(marked.begin() + static_cast<std::ptrdiff_t>(index(x0, y)), x1 - x0 + 1,
                  std::uint8_t{1});
    }
  }
  // Fill mag/ang at every marked pixel of `gauss`, in parallel over rows.
  void fill(const Image& gauss) {
    parallel_for(1, height - 1, 8, [&](std::int64_t y0, std::int64_t y1) {
      for (int y = static_cast<int>(y0); y < static_cast<int>(y1); ++y) {
        for (int x = 1; x < width - 1; ++x) {
          const std::size_t i = index(x, y);
          if (!marked[i]) continue;
          const float gx = gauss.at(x + 1, y) - gauss.at(x - 1, y);
          const float gy = gauss.at(x, y + 1) - gauss.at(x, y - 1);
          mag[i] = std::sqrt(gx * gx + gy * gy);
          ang[i] = std::atan2(gy, gx);
        }
      }
    });
  }
};

// Dominant orientation(s) from a 36-bin gradient histogram.
void compute_orientations(const GradientPlanes& grad, float x, float y, float sigma_rel,
                          std::vector<float>& angles) {
  angles.clear();
  float hist[kOrientationBins] = {};
  const int radius = orientation_radius(sigma_rel);
  const float weight_sigma = 1.5f * sigma_rel;
  const int cx = static_cast<int>(std::round(x));
  const int cy = static_cast<int>(std::round(y));
  // The Gaussian weight depends on |i| and |j| only: one quadrant of
  // exp() values serves all four.
  const auto side = static_cast<std::size_t>(radius + 1);
  std::vector<float> weights(side * side);
  for (int j = 0; j <= radius; ++j) {
    for (int i = 0; i <= radius; ++i) {
      weights[static_cast<std::size_t>(j) * side + static_cast<std::size_t>(i)] =
          std::exp(-static_cast<float>(i * i + j * j) / (2.0f * weight_sigma * weight_sigma));
    }
  }

  for (int j = -radius; j <= radius; ++j) {
    for (int i = -radius; i <= radius; ++i) {
      const int px = cx + i, py = cy + j;
      if (px < 1 || px >= grad.width - 1 || py < 1 || py >= grad.height - 1) continue;
      const std::size_t g = grad.index(px, py);
      const float mag = grad.mag[g];
      const float ang = grad.ang[g];
      const float w = weights[static_cast<std::size_t>(std::abs(j)) * side +
                              static_cast<std::size_t>(std::abs(i))];
      int bin = static_cast<int>(std::round((ang + kPi) / (2.0f * kPi) * kOrientationBins));
      bin = ((bin % kOrientationBins) + kOrientationBins) % kOrientationBins;
      hist[bin] += w * mag;
    }
  }

  // Smooth the histogram twice with a [1 1 1]/3 box.
  for (int pass = 0; pass < 2; ++pass) {
    float smoothed[kOrientationBins];
    for (int b = 0; b < kOrientationBins; ++b) {
      const int prev = (b + kOrientationBins - 1) % kOrientationBins;
      const int next = (b + 1) % kOrientationBins;
      smoothed[b] = (hist[prev] + hist[b] + hist[next]) / 3.0f;
    }
    std::copy(smoothed, smoothed + kOrientationBins, hist);
  }

  float max_val = 0.0f;
  for (float v : hist) max_val = std::max(max_val, v);
  if (max_val <= 0.0f) return;

  for (int b = 0; b < kOrientationBins; ++b) {
    const int prev = (b + kOrientationBins - 1) % kOrientationBins;
    const int next = (b + 1) % kOrientationBins;
    if (hist[b] >= 0.8f * max_val && hist[b] > hist[prev] && hist[b] > hist[next]) {
      // Parabolic peak interpolation.
      const float denom = hist[prev] - 2.0f * hist[b] + hist[next];
      const float delta = std::fabs(denom) > 1e-9f
                              ? 0.5f * (hist[prev] - hist[next]) / denom
                              : 0.0f;
      float ang = (static_cast<float>(b) + delta) / kOrientationBins * 2.0f * kPi - kPi;
      if (ang < 0.0f) ang += 2.0f * kPi;
      if (ang >= 2.0f * kPi) ang -= 2.0f * kPi;
      angles.push_back(ang);
    }
  }
}

// 4x4x8 gradient descriptor with trilinear interpolation.
Descriptor compute_descriptor(const GradientPlanes& grad, float x, float y, float sigma_rel,
                              float angle) {
  Descriptor desc{};
  const float cell = 3.0f * sigma_rel;  // histogram cell width in pixels
  const int radius = descriptor_radius(sigma_rel);
  const int cx = static_cast<int>(std::round(x));
  const int cy = static_cast<int>(std::round(y));
  const float cos_a = std::cos(-angle);
  const float sin_a = std::sin(-angle);
  const float weight_sigma = 0.5f * kDescWidth;

  for (int j = -radius; j <= radius; ++j) {
    for (int i = -radius; i <= radius; ++i) {
      const int px = cx + i;
      const int py = cy + j;
      if (px < 1 || px >= grad.width - 1 || py < 1 || py >= grad.height - 1) continue;

      // Rotate into the keypoint frame and express in cell units.
      const float rx = (cos_a * static_cast<float>(i) - sin_a * static_cast<float>(j)) / cell;
      const float ry = (sin_a * static_cast<float>(i) + cos_a * static_cast<float>(j)) / cell;
      const float cbin_x = rx + kDescWidth / 2.0f - 0.5f;
      const float cbin_y = ry + kDescWidth / 2.0f - 0.5f;
      if (cbin_x <= -1.0f || cbin_x >= kDescWidth || cbin_y <= -1.0f || cbin_y >= kDescWidth) {
        continue;
      }

      const std::size_t g = grad.index(px, py);
      const float mag = grad.mag[g];
      float theta = grad.ang[g] - angle;
      while (theta < 0.0f) theta += 2.0f * kPi;
      while (theta >= 2.0f * kPi) theta -= 2.0f * kPi;
      const float obin = theta / (2.0f * kPi) * kDescBins;
      const float w = std::exp(-(rx * rx + ry * ry) / (2.0f * weight_sigma * weight_sigma));

      // Trilinear distribution over (cell_x, cell_y, orientation).
      const int x0 = static_cast<int>(std::floor(cbin_x));
      const int y0 = static_cast<int>(std::floor(cbin_y));
      const int o0 = static_cast<int>(std::floor(obin));
      const float fx = cbin_x - static_cast<float>(x0);
      const float fy = cbin_y - static_cast<float>(y0);
      const float fo = obin - static_cast<float>(o0);
      for (int dyy = 0; dyy <= 1; ++dyy) {
        const int yb = y0 + dyy;
        if (yb < 0 || yb >= kDescWidth) continue;
        const float wy = dyy ? fy : 1.0f - fy;
        for (int dxx = 0; dxx <= 1; ++dxx) {
          const int xb = x0 + dxx;
          if (xb < 0 || xb >= kDescWidth) continue;
          const float wx = dxx ? fx : 1.0f - fx;
          for (int doo = 0; doo <= 1; ++doo) {
            const int ob = (o0 + doo) % kDescBins;
            const float wo = doo ? fo : 1.0f - fo;
            desc[static_cast<std::size_t>((yb * kDescWidth + xb) * kDescBins + ob)] +=
                w * mag * wy * wx * wo;
          }
        }
      }
    }
  }

  // Normalize, clip, renormalize (illumination invariance).
  auto normalize = [&desc] {
    float norm = 0.0f;
    for (float v : desc) norm += v * v;
    norm = std::sqrt(norm);
    if (norm > 1e-9f) {
      for (float& v : desc) v /= norm;
    }
  };
  normalize();
  for (float& v : desc) v = std::min(v, kDescMagThreshold);
  normalize();
  return desc;
}

}  // namespace

FeatureList SiftDetector::detect(const Image& image) const {
  FeatureList features;
  if (image.empty() || image.width() < 32 || image.height() < 32) return features;

  ScaleSpace ss = build_scale_space(image, params_);
  const int s = params_.scales_per_octave;
  // Each octave runs in three phases, each parallel over independent
  // outputs and concatenated in a fixed order, so the feature order
  // (and every value) matches the serial y-major scan at any pool size:
  //  (a) row bands scan the DoG layers for extrema and refine them into
  //      candidates, concatenated in layer then row order;
  //  (b) per Gaussian level, mark the union of the candidates' windows
  //      and fill gradient magnitude/angle there once;
  //  (c) orientations and descriptors per candidate, reading the planes.
  constexpr std::int64_t kBandRows = 8;
  constexpr std::int64_t kCandidatesPerChunk = 2;

  struct Candidate {
    Keypoint kp;
    int level = 0;  // Gaussian image closest to the keypoint's scale
    float x = 0.0f, y = 0.0f;  // position in octave pixels
    float sigma_rel = 0.0f;
  };

  for (std::size_t o = 0; o < ss.dog.size(); ++o) {
    const auto& dog = ss.dog[o];
    const int w = dog[0].width();
    const int h = dog[0].height();
    const float oct_scale =
        ss.base_scale * std::pow(2.0f, static_cast<float>(o));

    // (a) Extrema scan.
    std::vector<Candidate> candidates;
    for (int layer = 1; layer <= s; ++layer) {
      const Image& d1 = dog[static_cast<std::size_t>(layer)];
      std::vector<std::vector<Candidate>> bands(
          static_cast<std::size_t>(ThreadPool::num_chunks(1, h - 1, kBandRows)));
      parallel_for_chunks(1, h - 1, kBandRows, [&](std::int64_t band, std::int64_t y0,
                                                   std::int64_t y1) {
        // Per-chunk scope: pool workers have their own (empty) stage
        // stacks, so each band annotates its own thread.
        telemetry::ProfScope prof_band("sift_extrema");
        std::vector<Candidate>& band_candidates = bands[static_cast<std::size_t>(band)];
        for (int y = static_cast<int>(y0); y < static_cast<int>(y1); ++y) {
          for (int x = 1; x < w - 1; ++x) {
            const float v = d1.at(x, y);
            if (std::fabs(v) < 0.8f * params_.contrast_threshold / static_cast<float>(s)) {
              continue;
            }
            // 26-neighbour extremum test.
            bool is_max = true, is_min = true;
            for (int dl = -1; dl <= 1 && (is_max || is_min); ++dl) {
              const Image& dn = dog[static_cast<std::size_t>(layer + dl)];
              for (int dy = -1; dy <= 1; ++dy) {
                for (int dx = -1; dx <= 1; ++dx) {
                  if (dl == 0 && dx == 0 && dy == 0) continue;
                  const float nv = dn.at(x + dx, y + dy);
                  if (nv >= v) is_max = false;
                  if (nv <= v) is_min = false;
                }
              }
            }
            if (!is_max && !is_min) continue;

            Candidate c;
            if (!refine_extremum(dog, s, params_.base_sigma, static_cast<int>(o), ss.base_scale,
                                 x, y, layer, params_, c.kp)) {
              continue;
            }
            c.sigma_rel = c.kp.scale / oct_scale;
            c.level = std::clamp(static_cast<int>(std::round(
                                     std::log2(std::max(c.sigma_rel / params_.base_sigma, 1e-6f)) *
                                     static_cast<float>(s))),
                                 0, s + 2);
            c.x = c.kp.x / oct_scale;
            c.y = c.kp.y / oct_scale;
            band_candidates.push_back(c);
          }
        }
      });
      for (const std::vector<Candidate>& band : bands) {
        candidates.insert(candidates.end(), band.begin(), band.end());
      }
    }
    // Nothing reads this octave's DoG planes after the scan; release
    // them before the gradient planes are allocated.
    ss.dog[o] = {};
    if (candidates.empty()) continue;

    // (b) + (c), one Gaussian level at a time, reusing one set of planes.
    std::vector<FeatureList> described(candidates.size());
    GradientPlanes grad(w, h);
    std::vector<std::size_t> at_level;
    for (int level = 0; level <= s + 2; ++level) {
      at_level.clear();
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (candidates[i].level == level) at_level.push_back(i);
      }
      if (at_level.empty()) continue;
      {
        telemetry::ProfScope prof("sift_gradients");
        std::fill(grad.marked.begin(), grad.marked.end(), std::uint8_t{0});
        for (std::size_t i : at_level) {
          const Candidate& c = candidates[i];
          grad.mark(static_cast<int>(std::round(c.x)), static_cast<int>(std::round(c.y)),
                    std::max(orientation_radius(c.sigma_rel), descriptor_radius(c.sigma_rel)));
        }
        grad.fill(ss.gauss[o][static_cast<std::size_t>(level)]);
      }
      parallel_for(0, static_cast<std::int64_t>(at_level.size()), kCandidatesPerChunk,
                   [&](std::int64_t i0, std::int64_t i1) {
        telemetry::ProfScope prof("sift_describe");
        std::vector<float> angles;
        for (std::int64_t k = i0; k < i1; ++k) {
          const std::size_t i = at_level[static_cast<std::size_t>(k)];
          const Candidate& c = candidates[i];
          compute_orientations(grad, c.x, c.y, c.sigma_rel, angles);
          for (float ang : angles) {
            Feature f;
            f.keypoint = c.kp;
            f.keypoint.angle = ang;
            f.descriptor = compute_descriptor(grad, c.x, c.y, c.sigma_rel, ang);
            described[i].push_back(std::move(f));
          }
        }
      });
    }
    for (FeatureList& list : described) {
      std::move(list.begin(), list.end(), std::back_inserter(features));
    }
  }

  if (params_.max_features > 0 &&
      features.size() > static_cast<std::size_t>(params_.max_features)) {
    std::nth_element(features.begin(),
                     features.begin() + params_.max_features, features.end(),
                     [](const Feature& a, const Feature& b) {
                       return a.keypoint.response > b.keypoint.response;
                     });
    features.resize(static_cast<std::size_t>(params_.max_features));
  }
  // Keypoint + 128-float descriptor storage for this frame's output.
  telemetry::profile_alloc_as("sift_descriptors", features.size() * sizeof(Feature));
  return features;
}

}  // namespace mar::vision
