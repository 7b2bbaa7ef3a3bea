#include "vision/image.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/parallel.h"
#include "common/simd.h"

namespace mar::vision {
namespace {

// Rows per parallel chunk for the per-pixel kernels below. The value
// only affects scheduling: each output pixel is computed exactly as in
// the serial code, so results are bit-identical at any pool size.
constexpr std::int64_t kRowGrain = 16;

// out[x] = sum over taps i of kernel[i] * taps[i][x], for x in [0, w).
// Each output starts at 0 and adds its taps in order i = 0, 1, ..., the
// scalar convolution's exact sequence, so results are bit-identical to
// it; the lanes only run independent outputs side by side. Sixteen
// pixels (four 4-lane accumulators) are in flight at once, so the add
// latency of a single chain no longer bounds throughput.
void convolve_taps(const float* kernel, const float* const* taps, int ntaps, int w,
                   float* out) {
  using simd::F32x4;
  using simd::load;
  int x = 0;
  for (; x + 4 * simd::kLanes <= w; x += 4 * simd::kLanes) {
    F32x4 a0 = simd::splat(0.0f), a1 = a0, a2 = a0, a3 = a0;
    for (int i = 0; i < ntaps; ++i) {
      const F32x4 k = simd::splat(kernel[i]);
      const float* p = taps[i] + x;
      a0 += k * load(p);
      a1 += k * load(p + 4);
      a2 += k * load(p + 8);
      a3 += k * load(p + 12);
    }
    simd::store(out + x, a0);
    simd::store(out + x + 4, a1);
    simd::store(out + x + 8, a2);
    simd::store(out + x + 12, a3);
  }
  for (; x + simd::kLanes <= w; x += simd::kLanes) {
    F32x4 a = simd::splat(0.0f);
    for (int i = 0; i < ntaps; ++i) a += simd::splat(kernel[i]) * load(taps[i] + x);
    simd::store(out + x, a);
  }
  for (; x < w; ++x) {
    float acc = 0.0f;
    for (int i = 0; i < ntaps; ++i) acc += kernel[i] * taps[i][x];
    out[x] = acc;
  }
}

}  // namespace

float Image::at_clamped(int x, int y) const {
  x = std::clamp(x, 0, width_ - 1);
  y = std::clamp(y, 0, height_ - 1);
  return at(x, y);
}

float Image::sample(float x, float y) const {
  x = std::clamp(x, 0.0f, static_cast<float>(width_ - 1));
  y = std::clamp(y, 0.0f, static_cast<float>(height_ - 1));
  const int x0 = static_cast<int>(x);
  const int y0 = static_cast<int>(y);
  const int x1 = std::min(x0 + 1, width_ - 1);
  const int y1 = std::min(y0 + 1, height_ - 1);
  const float fx = x - static_cast<float>(x0);
  const float fy = y - static_cast<float>(y0);
  const float top = at(x0, y0) * (1.0f - fx) + at(x1, y0) * fx;
  const float bot = at(x0, y1) * (1.0f - fx) + at(x1, y1) * fx;
  return top * (1.0f - fy) + bot * fy;
}

Image gaussian_blur(const Image& src, float sigma) {
  if (sigma <= 0.0f || src.empty()) return src;
  const int radius = std::max(1, static_cast<int>(std::ceil(3.0f * sigma)));
  const int ntaps = 2 * radius + 1;
  std::vector<float> kernel(static_cast<std::size_t>(ntaps));
  float sum = 0.0f;
  for (int i = -radius; i <= radius; ++i) {
    const float v = std::exp(-static_cast<float>(i * i) / (2.0f * sigma * sigma));
    kernel[static_cast<std::size_t>(i + radius)] = v;
    sum += v;
  }
  for (float& k : kernel) k /= sum;

  const int w = src.width(), h = src.height();
  Image tmp(w, h);
  // Horizontal pass, row-parallel. The per-chunk ProfScope annotates
  // whichever pool worker (or the caller) runs the chunk.
  parallel_for(0, h, kRowGrain, [&](std::int64_t y0, std::int64_t y1) {
    telemetry::ProfScope prof("img_blur");
    // The row padded with `radius` replicated border pixels on each
    // side: padded[radius + x] == src.at_clamped(x, y) for every x in
    // [-radius, w + radius), so the border columns run the same tap
    // loop as the interior.
    std::vector<float> padded(static_cast<std::size_t>(w + 2 * radius));
    std::vector<const float*> taps(static_cast<std::size_t>(ntaps));
    for (int i = 0; i < ntaps; ++i) taps[static_cast<std::size_t>(i)] = padded.data() + i;
    for (int y = static_cast<int>(y0); y < static_cast<int>(y1); ++y) {
      const float* srow = src.data().data() + static_cast<std::size_t>(y) * w;
      std::fill_n(padded.begin(), radius, srow[0]);
      std::copy(srow, srow + w, padded.begin() + radius);
      std::fill_n(padded.begin() + radius + w, radius, srow[w - 1]);
      convolve_taps(kernel.data(), taps.data(), ntaps, w,
                    tmp.data().data() + static_cast<std::size_t>(y) * w);
    }
  });

  // Vertical pass, row-parallel. Row clamping is hoisted out of the
  // pixel loop: each tap reads one (possibly replicated) source row.
  Image out(w, h);
  parallel_for(0, h, kRowGrain, [&](std::int64_t y0, std::int64_t y1) {
    telemetry::ProfScope prof("img_blur");
    std::vector<const float*> rows(static_cast<std::size_t>(ntaps));
    for (int y = static_cast<int>(y0); y < static_cast<int>(y1); ++y) {
      for (int i = -radius; i <= radius; ++i) {
        const int py = std::clamp(y + i, 0, h - 1);
        rows[static_cast<std::size_t>(i + radius)] =
            tmp.data().data() + static_cast<std::size_t>(py) * w;
      }
      convolve_taps(kernel.data(), rows.data(), ntaps, w,
                    out.data().data() + static_cast<std::size_t>(y) * w);
    }
  });
  return out;
}

Image resize(const Image& src, int new_width, int new_height) {
  Image out(new_width, new_height);
  if (src.empty() || new_width <= 0 || new_height <= 0) return out;
  const float sx = static_cast<float>(src.width()) / static_cast<float>(new_width);
  const float sy = static_cast<float>(src.height()) / static_cast<float>(new_height);
  parallel_for(0, new_height, kRowGrain, [&](std::int64_t y0, std::int64_t y1) {
    for (int y = static_cast<int>(y0); y < static_cast<int>(y1); ++y) {
      for (int x = 0; x < new_width; ++x) {
        out.at(x, y) = src.sample((static_cast<float>(x) + 0.5f) * sx - 0.5f,
                                  (static_cast<float>(y) + 0.5f) * sy - 0.5f);
      }
    }
  });
  return out;
}

Image half_size(const Image& src) {
  Image out(std::max(1, src.width() / 2), std::max(1, src.height() / 2));
  for (int y = 0; y < out.height(); ++y) {
    for (int x = 0; x < out.width(); ++x) {
      out.at(x, y) = src.at(std::min(2 * x, src.width() - 1), std::min(2 * y, src.height() - 1));
    }
  }
  return out;
}

Image double_size(const Image& src) {
  Image out(src.width() * 2, src.height() * 2);
  parallel_for(0, out.height(), kRowGrain, [&](std::int64_t y0, std::int64_t y1) {
    for (int y = static_cast<int>(y0); y < static_cast<int>(y1); ++y) {
      for (int x = 0; x < out.width(); ++x) {
        out.at(x, y) = src.sample(static_cast<float>(x) / 2.0f, static_cast<float>(y) / 2.0f);
      }
    }
  });
  return out;
}

Image subtract(const Image& a, const Image& b) {
  Image out(a.width(), a.height());
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* po = out.data().data();
  parallel_for(0, static_cast<std::int64_t>(out.size()), 64 * 1024,
               [&](std::int64_t i0, std::int64_t i1) {
                 for (std::int64_t i = i0; i < i1; ++i) po[i] = pa[i] - pb[i];
               });
  return out;
}

Image from_bytes(const std::uint8_t* data, int width, int height) {
  Image out(width, height);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = static_cast<float>(data[i]) / 255.0f;
  }
  return out;
}

std::vector<std::uint8_t> to_bytes(const Image& img) {
  std::vector<std::uint8_t> out(img.size());
  for (std::size_t i = 0; i < img.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(std::clamp(img.data()[i], 0.0f, 1.0f) * 255.0f + 0.5f);
  }
  return out;
}

bool write_pgm(const Image& img, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fprintf(f, "P5\n%d %d\n255\n", img.width(), img.height());
  const auto bytes = to_bytes(img);
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  return ok;
}

}  // namespace mar::vision
