// Thread-pool unit tests plus bit-identical determinism checks for the
// parallel vision kernels: every kernel must produce exactly the same
// bytes at pool size 1, 2, and hardware_concurrency().
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "vision/engine.h"
#include "vision/fisher.h"
#include "vision/gmm.h"
#include "vision/image.h"
#include "vision/matcher.h"
#include "vision/pca.h"
#include "vision/sift.h"
#include "video/scene.h"

namespace mar::vision {
namespace {

// --- thread pool ---------------------------------------------------------------

class PoolTest : public ::testing::Test {
 protected:
  void TearDown() override { set_parallel_threads(0); }
};

TEST_F(PoolTest, EmptyRangeNeverInvokes) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.for_range(5, 5, 1, [&](std::int64_t, std::int64_t) { calls.fetch_add(1); });
  pool.for_range(7, 3, 1, [&](std::int64_t, std::int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST_F(PoolTest, GrainLargerThanRangeIsOneChunk) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  std::int64_t seen_begin = -1, seen_end = -1;
  pool.for_chunks(2, 9, 100, [&](std::int64_t chunk, std::int64_t i0, std::int64_t i1) {
    calls.fetch_add(1);
    EXPECT_EQ(chunk, 0);
    seen_begin = i0;
    seen_end = i1;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen_begin, 2);
  EXPECT_EQ(seen_end, 9);
}

TEST_F(PoolTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.for_range(0, kN, 7, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << i;
}

TEST_F(PoolTest, ChunkGridIndependentOfPoolSize) {
  EXPECT_EQ(ThreadPool::num_chunks(0, 100, 7), 15);
  EXPECT_EQ(ThreadPool::num_chunks(0, 0, 7), 0);
  EXPECT_EQ(ThreadPool::num_chunks(3, 4, 100), 1);
  // The grid is a static property: pools of any size see the same chunks.
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<std::int64_t>> bounds(15);
    pool.for_chunks(0, 100, 7, [&](std::int64_t chunk, std::int64_t i0, std::int64_t i1) {
      bounds[static_cast<std::size_t>(chunk)].store(i0 * 1000 + i1);
    });
    for (std::int64_t c = 0; c < 15; ++c) {
      const std::int64_t i0 = c * 7;
      const std::int64_t i1 = std::min<std::int64_t>(100, (c + 1) * 7);
      EXPECT_EQ(bounds[static_cast<std::size_t>(c)].load(), i0 * 1000 + i1);
    }
  }
}

TEST_F(PoolTest, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.for_range(0, 100, 1,
                              [](std::int64_t i0, std::int64_t) {
                                if (i0 == 42) throw std::runtime_error("boom");
                              }),
               std::runtime_error);
  // The pool must survive a throwing job and run the next one fully.
  std::atomic<int> count{0};
  pool.for_range(0, 64, 4, [&](std::int64_t i0, std::int64_t i1) {
    count.fetch_add(static_cast<int>(i1 - i0));
  });
  EXPECT_EQ(count.load(), 64);
}

TEST_F(PoolTest, SerialPoolPropagatesException) {
  ThreadPool pool(1);
  EXPECT_THROW(
      pool.for_range(0, 10, 1,
                     [](std::int64_t, std::int64_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);
}

TEST_F(PoolTest, NestedCallRunsSeriallyWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.for_range(0, 8, 1, [&](std::int64_t, std::int64_t) {
    pool.for_range(0, 10, 2, [&](std::int64_t i0, std::int64_t i1) {
      inner_total.fetch_add(static_cast<int>(i1 - i0));
    });
  });
  EXPECT_EQ(inner_total.load(), 80);
}

// Thousands of tiny back-to-back jobs of varying shape: a worker still
// leaving job N must never run a chunk of job N+1 with N's fields (or
// the reverse), so every chunk of every job runs exactly once, through
// its own job's function, with its own bounds. Under
// -DMAR_SANITIZE=thread this also catches the racing field reads. The
// jobs' functions outlive the pool so a stray call stays observable.
TEST_F(PoolTest, BackToBackTinyJobsRunEachChunkOnceWithItsBounds) {
  constexpr int kJobs = 5000;
  constexpr int kMaxChunks = 16;
  std::vector<std::atomic<int>> runs(static_cast<std::size_t>(kJobs) * kMaxChunks);
  std::atomic<int> bad_bounds{0};
  struct Shape {
    std::int64_t begin, end, grain, chunks;
  };
  std::vector<Shape> shapes;
  std::vector<ThreadPool::ChunkFn> fns;
  for (int j = 0; j < kJobs; ++j) {
    Shape sh;
    sh.begin = j % 5;
    sh.grain = 1 + j % 3;
    sh.chunks = 1 + (j * 7) % kMaxChunks;
    sh.end = sh.begin + (sh.chunks - 1) * sh.grain + 1 + j % sh.grain;
    shapes.push_back(sh);
    fns.emplace_back([&runs, &bad_bounds, sh, j](std::int64_t c, std::int64_t i0,
                                                 std::int64_t i1) {
      if (c < 0 || c >= sh.chunks || i0 != sh.begin + c * sh.grain ||
          i1 != std::min(sh.end, sh.begin + (c + 1) * sh.grain)) {
        bad_bounds.fetch_add(1);
        return;
      }
      runs[static_cast<std::size_t>(j) * kMaxChunks + static_cast<std::size_t>(c)].fetch_add(1);
    });
  }
  {
    ThreadPool pool(4);
    for (int j = 0; j < kJobs; ++j) {
      const Shape& sh = shapes[static_cast<std::size_t>(j)];
      ASSERT_EQ(ThreadPool::num_chunks(sh.begin, sh.end, sh.grain), sh.chunks);
      pool.for_chunks(sh.begin, sh.end, sh.grain, fns[static_cast<std::size_t>(j)]);
    }
  }  // joins the workers: no stray call can land after the checks
  EXPECT_EQ(bad_bounds.load(), 0);
  int wrong = 0;
  for (int j = 0; j < kJobs; ++j) {
    for (int c = 0; c < kMaxChunks; ++c) {
      const int expected = c < shapes[static_cast<std::size_t>(j)].chunks ? 1 : 0;
      if (runs[static_cast<std::size_t>(j) * kMaxChunks + static_cast<std::size_t>(c)].load() !=
          expected) {
        ++wrong;
      }
    }
  }
  EXPECT_EQ(wrong, 0);
}

TEST_F(PoolTest, GlobalPoolIsReusedAcrossCalls) {
  set_parallel_threads(4);
  ThreadPool* first = &global_pool();
  EXPECT_EQ(parallel_threads(), 4);

  // If the pool respawned threads per call, new thread ids would keep
  // appearing; a fixed worker set stays within `size()` distinct ids.
  std::mutex mu;
  std::set<std::thread::id> ids;
  for (int run = 0; run < 20; ++run) {
    parallel_for(0, 64, 1, [&](std::int64_t, std::int64_t) {
      std::lock_guard<std::mutex> lk(mu);
      ids.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(&global_pool(), first);
  }
  EXPECT_LE(ids.size(), 4u);
}

TEST_F(PoolTest, MarThreadsEnvOverridesDefault) {
  ::setenv("MAR_THREADS", "3", 1);
  set_parallel_threads(0);  // re-derive the default sizing
  EXPECT_EQ(parallel_threads(), 3);
  ::unsetenv("MAR_THREADS");
  set_parallel_threads(0);
  EXPECT_GE(parallel_threads(), 1);
}

// --- kernel determinism --------------------------------------------------------

Image test_frame() {
  static const Image frame = [] {
    video::WorkplaceScene scene(640, 360);
    return resize(scene.render(0.0), 480, 270);
  }();
  return frame;
}

std::vector<int> pool_sizes() {
  const int hc = static_cast<int>(std::thread::hardware_concurrency());
  return {1, 2, std::max(hc, 1)};
}

void expect_images_identical(const Image& a, const Image& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "pixel " << i;
  }
}

void expect_features_identical(const FeatureList& a, const FeatureList& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].keypoint.x, b[i].keypoint.x) << i;
    ASSERT_EQ(a[i].keypoint.y, b[i].keypoint.y) << i;
    ASSERT_EQ(a[i].keypoint.scale, b[i].keypoint.scale) << i;
    ASSERT_EQ(a[i].keypoint.angle, b[i].keypoint.angle) << i;
    ASSERT_EQ(a[i].keypoint.response, b[i].keypoint.response) << i;
    ASSERT_EQ(a[i].keypoint.octave, b[i].keypoint.octave) << i;
    for (int j = 0; j < kDescriptorDim; ++j) {
      ASSERT_EQ(a[i].descriptor[static_cast<std::size_t>(j)],
                b[i].descriptor[static_cast<std::size_t>(j)])
          << "feature " << i << " dim " << j;
    }
  }
}

class DeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { set_parallel_threads(0); }
};

TEST_F(DeterminismTest, BlurAndResizeBitIdenticalAcrossPoolSizes) {
  const Image frame = test_frame();
  set_parallel_threads(1);
  const Image blur_serial = gaussian_blur(frame, 1.6f);
  const Image resize_serial = resize(frame, 123, 77);
  const Image dog_serial = subtract(blur_serial, frame);
  for (int n : pool_sizes()) {
    set_parallel_threads(n);
    expect_images_identical(blur_serial, gaussian_blur(frame, 1.6f));
    expect_images_identical(resize_serial, resize(frame, 123, 77));
    expect_images_identical(dog_serial, subtract(blur_serial, frame));
  }
}

TEST_F(DeterminismTest, BlurMatchesClampedReference) {
  // The padded-row, 4-lane kernel must reproduce the straightforward
  // clamp-everywhere convolution bit for bit: widths below, at and past
  // the 4- and 16-pixel lane steps (scalar tails), and radii larger
  // than the image (every tap replicated border).
  const std::tuple<int, int> sizes[] = {{1, 1},   {3, 2},   {4, 4},   {5, 4},   {15, 9},
                                        {16, 16}, {17, 5},  {33, 21}, {40, 30}, {320, 180}};
  for (const auto& [w, h] : sizes) {
    for (const float sigma : {0.5f, 1.23f, 2.0f, 3.1f}) {
      SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h) + " sigma " +
                   std::to_string(sigma));
      Image img(w, h);
      Rng rng(11);
      for (float& v : img.data()) v = static_cast<float>(rng.uniform(0.0, 1.0));

      const int radius = std::max(1, static_cast<int>(std::ceil(3.0f * sigma)));
      std::vector<float> kernel(static_cast<std::size_t>(2 * radius + 1));
      float sum = 0.0f;
      for (int i = -radius; i <= radius; ++i) {
        const float v = std::exp(-static_cast<float>(i * i) / (2.0f * sigma * sigma));
        kernel[static_cast<std::size_t>(i + radius)] = v;
        sum += v;
      }
      for (float& kv : kernel) kv /= sum;
      Image tmp(w, h), ref(w, h);
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          float acc = 0.0f;
          for (int i = -radius; i <= radius; ++i) {
            acc += kernel[static_cast<std::size_t>(i + radius)] * img.at_clamped(x + i, y);
          }
          tmp.at(x, y) = acc;
        }
      }
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          float acc = 0.0f;
          for (int i = -radius; i <= radius; ++i) {
            acc += kernel[static_cast<std::size_t>(i + radius)] * tmp.at_clamped(x, y + i);
          }
          ref.at(x, y) = acc;
        }
      }
      for (int n : pool_sizes()) {
        set_parallel_threads(n);
        expect_images_identical(ref, gaussian_blur(img, sigma));
      }
    }
  }
}

// Seeded bright and dark blobs on smooth noise, several of them centred
// a few pixels from the image border, so keypoint windows are clipped
// by the border as well as spanning the 8-row scan bands.
Image blob_frame() {
  constexpr int kW = 160, kH = 120;
  Image img(kW, kH);
  Rng rng(23);
  for (float& v : img.data()) v = static_cast<float>(rng.uniform(0.3, 0.7));
  img = gaussian_blur(img, 2.0f);
  struct Blob {
    float x, y, sigma, amp;
  };
  std::vector<Blob> blobs = {{4, 30, 2.5f, 0.5f},    {kW - 5, 70, 3.0f, -0.5f},
                             {50, 3, 2.0f, 0.5f},    {110, kH - 4, 2.5f, -0.4f},
                             {3, 4, 2.0f, 0.6f},     {kW - 4, kH - 4, 2.0f, -0.6f}};
  for (int i = 0; i < 24; ++i) {
    blobs.push_back({static_cast<float>(rng.uniform(0, kW)), static_cast<float>(rng.uniform(0, kH)),
                     static_cast<float>(rng.uniform(1.5, 5.0)),
                     static_cast<float>(rng.uniform(-0.5, 0.5))});
  }
  for (const Blob& b : blobs) {
    for (int y = 0; y < kH; ++y) {
      for (int x = 0; x < kW; ++x) {
        const float d2 = (static_cast<float>(x) - b.x) * (static_cast<float>(x) - b.x) +
                         (static_cast<float>(y) - b.y) * (static_cast<float>(y) - b.y);
        img.at(x, y) += b.amp * std::exp(-d2 / (2.0f * b.sigma * b.sigma));
      }
    }
  }
  return img;
}

// --- per-sample SIFT reference --------------------------------------------------
//
// Orientation histogram and descriptor as straightforward per-sample
// loops: every sample computes its own central difference, sqrt and
// atan2 on the Gaussian level. The detector shares one gradient plane
// per level between both and must reproduce these loops bit for bit,
// including for windows clipped by the border.

constexpr float kRefPi = 3.14159265358979323846f;

// Gaussian level `level` of octave `octave`, built with the detector's
// sigma schedule (default SiftParams: no upsampling, input sigma 0.5).
Image reference_gauss_level(const Image& input, const SiftParams& p, int octave, int level) {
  const float diff = std::sqrt(std::max(p.base_sigma * p.base_sigma - 0.25f, 0.01f));
  Image current = gaussian_blur(input, diff);
  const int s = p.scales_per_octave;
  const float k = std::pow(2.0f, 1.0f / static_cast<float>(s));
  for (int o = 0;; ++o) {
    std::vector<Image> gauss = {current};
    float sigma = p.base_sigma;
    for (int i = 1; i < s + 3; ++i) {
      const float next_sigma = sigma * k;
      const float inc = std::sqrt(std::max(next_sigma * next_sigma - sigma * sigma, 1e-6f));
      gauss.push_back(gaussian_blur(gauss.back(), inc));
      sigma = next_sigma;
    }
    if (o == octave) return gauss[static_cast<std::size_t>(level)];
    current = half_size(gauss[static_cast<std::size_t>(s)]);
  }
}

std::vector<float> reference_orientations(const Image& gauss, float x, float y,
                                          float sigma_rel) {
  constexpr int kBins = 36;
  float hist[kBins] = {};
  const int radius = std::max(1, static_cast<int>(std::round(4.5f * sigma_rel)));
  const float weight_sigma = 1.5f * sigma_rel;
  const int cx = static_cast<int>(std::round(x));
  const int cy = static_cast<int>(std::round(y));
  for (int j = -radius; j <= radius; ++j) {
    for (int i = -radius; i <= radius; ++i) {
      const int px = cx + i, py = cy + j;
      if (px < 1 || px >= gauss.width() - 1 || py < 1 || py >= gauss.height() - 1) continue;
      const float gx = gauss.at(px + 1, py) - gauss.at(px - 1, py);
      const float gy = gauss.at(px, py + 1) - gauss.at(px, py - 1);
      const float mag = std::sqrt(gx * gx + gy * gy);
      const float ang = std::atan2(gy, gx);
      const float w = std::exp(-static_cast<float>(i * i + j * j) /
                               (2.0f * weight_sigma * weight_sigma));
      int bin = static_cast<int>(std::round((ang + kRefPi) / (2.0f * kRefPi) * kBins));
      bin = ((bin % kBins) + kBins) % kBins;
      hist[bin] += w * mag;
    }
  }
  for (int pass = 0; pass < 2; ++pass) {
    float smoothed[kBins];
    for (int b = 0; b < kBins; ++b) {
      smoothed[b] = (hist[(b + kBins - 1) % kBins] + hist[b] + hist[(b + 1) % kBins]) / 3.0f;
    }
    std::copy(smoothed, smoothed + kBins, hist);
  }
  std::vector<float> angles;
  float max_val = 0.0f;
  for (float v : hist) max_val = std::max(max_val, v);
  if (max_val <= 0.0f) return angles;
  for (int b = 0; b < kBins; ++b) {
    const int prev = (b + kBins - 1) % kBins;
    const int next = (b + 1) % kBins;
    if (hist[b] >= 0.8f * max_val && hist[b] > hist[prev] && hist[b] > hist[next]) {
      const float denom = hist[prev] - 2.0f * hist[b] + hist[next];
      const float delta =
          std::fabs(denom) > 1e-9f ? 0.5f * (hist[prev] - hist[next]) / denom : 0.0f;
      float ang = (static_cast<float>(b) + delta) / kBins * 2.0f * kRefPi - kRefPi;
      if (ang < 0.0f) ang += 2.0f * kRefPi;
      if (ang >= 2.0f * kRefPi) ang -= 2.0f * kRefPi;
      angles.push_back(ang);
    }
  }
  return angles;
}

Descriptor reference_descriptor(const Image& gauss, float x, float y, float sigma_rel,
                                float angle) {
  constexpr int kWidth = 4, kBins = 8;
  Descriptor desc{};
  const float cell = 3.0f * sigma_rel;
  const int radius = static_cast<int>(std::round(cell * std::sqrt(2.0f) * (kWidth + 1) * 0.5f));
  const float cos_a = std::cos(-angle);
  const float sin_a = std::sin(-angle);
  const float weight_sigma = 0.5f * kWidth;
  for (int j = -radius; j <= radius; ++j) {
    for (int i = -radius; i <= radius; ++i) {
      const int px = static_cast<int>(std::round(x)) + i;
      const int py = static_cast<int>(std::round(y)) + j;
      if (px < 1 || px >= gauss.width() - 1 || py < 1 || py >= gauss.height() - 1) continue;
      const float rx = (cos_a * static_cast<float>(i) - sin_a * static_cast<float>(j)) / cell;
      const float ry = (sin_a * static_cast<float>(i) + cos_a * static_cast<float>(j)) / cell;
      const float cbin_x = rx + kWidth / 2.0f - 0.5f;
      const float cbin_y = ry + kWidth / 2.0f - 0.5f;
      if (cbin_x <= -1.0f || cbin_x >= kWidth || cbin_y <= -1.0f || cbin_y >= kWidth) continue;
      const float gx = gauss.at(px + 1, py) - gauss.at(px - 1, py);
      const float gy = gauss.at(px, py + 1) - gauss.at(px, py - 1);
      const float mag = std::sqrt(gx * gx + gy * gy);
      float theta = std::atan2(gy, gx) - angle;
      while (theta < 0.0f) theta += 2.0f * kRefPi;
      while (theta >= 2.0f * kRefPi) theta -= 2.0f * kRefPi;
      const float obin = theta / (2.0f * kRefPi) * kBins;
      const float w = std::exp(-(rx * rx + ry * ry) / (2.0f * weight_sigma * weight_sigma));
      const int x0 = static_cast<int>(std::floor(cbin_x));
      const int y0 = static_cast<int>(std::floor(cbin_y));
      const int o0 = static_cast<int>(std::floor(obin));
      const float fx = cbin_x - static_cast<float>(x0);
      const float fy = cbin_y - static_cast<float>(y0);
      const float fo = obin - static_cast<float>(o0);
      for (int dyy = 0; dyy <= 1; ++dyy) {
        const int yb = y0 + dyy;
        if (yb < 0 || yb >= kWidth) continue;
        const float wy = dyy ? fy : 1.0f - fy;
        for (int dxx = 0; dxx <= 1; ++dxx) {
          const int xb = x0 + dxx;
          if (xb < 0 || xb >= kWidth) continue;
          const float wx = dxx ? fx : 1.0f - fx;
          for (int doo = 0; doo <= 1; ++doo) {
            const int ob = (o0 + doo) % kBins;
            const float wo = doo ? fo : 1.0f - fo;
            desc[static_cast<std::size_t>((yb * kWidth + xb) * kBins + ob)] +=
                w * mag * wy * wx * wo;
          }
        }
      }
    }
  }
  auto normalize = [&desc] {
    float norm = 0.0f;
    for (float v : desc) norm += v * v;
    norm = std::sqrt(norm);
    if (norm > 1e-9f) {
      for (float& v : desc) v /= norm;
    }
  };
  normalize();
  for (float& v : desc) v = std::min(v, 0.2f);
  normalize();
  return desc;
}

// Every feature's orientation set and descriptor equal the per-sample
// reference on its Gaussian level (no max_features cut, so each
// keypoint keeps all its orientations, in order).
TEST_F(DeterminismTest, SiftFeaturesMatchPerSampleReference) {
  SiftParams unlimited;
  unlimited.max_features = 0;
  const SiftDetector detector(unlimited);
  const int s = unlimited.scales_per_octave;
  for (const Image& frame : {test_frame(), blob_frame()}) {
    for (int n : {1, 4}) {
      set_parallel_threads(n);
      const FeatureList features = detector.detect(frame);
      ASSERT_FALSE(features.empty());
      std::map<std::pair<int, int>, Image> levels;
      std::size_t i = 0;
      while (i < features.size()) {
        const Keypoint& kp = features[i].keypoint;
        const float oct_scale = std::pow(2.0f, static_cast<float>(kp.octave));
        const float sigma_rel = kp.scale / oct_scale;
        const int level = std::clamp(
            static_cast<int>(std::round(
                std::log2(std::max(sigma_rel / unlimited.base_sigma, 1e-6f)) *
                static_cast<float>(s))),
            0, s + 2);
        auto it = levels.find({kp.octave, level});
        if (it == levels.end()) {
          it = levels.emplace(std::make_pair(kp.octave, level),
                              reference_gauss_level(frame, unlimited, kp.octave, level))
                   .first;
        }
        const float x = kp.x / oct_scale, y = kp.y / oct_scale;
        const std::vector<float> angles = reference_orientations(it->second, x, y, sigma_rel);
        ASSERT_FALSE(angles.empty()) << "feature " << i;
        for (std::size_t a = 0; a < angles.size(); ++a, ++i) {
          ASSERT_LT(i, features.size());
          const Feature& f = features[i];
          ASSERT_EQ(f.keypoint.x, kp.x) << "feature " << i;
          ASSERT_EQ(f.keypoint.y, kp.y) << "feature " << i;
          ASSERT_EQ(f.keypoint.angle, angles[a]) << "feature " << i;
          const Descriptor ref = reference_descriptor(it->second, x, y, sigma_rel, angles[a]);
          for (int d = 0; d < kDescriptorDim; ++d) {
            ASSERT_EQ(f.descriptor[static_cast<std::size_t>(d)], ref[static_cast<std::size_t>(d)])
                << "feature " << i << " dim " << d << " pool " << n;
          }
        }
      }
    }
  }
}

// Orientation, descriptor and the gradient planes they share must not
// depend on how candidates, bands and plane rows fall on lanes. The
// frames cover windows clipped by the image border and keypoints with
// several dominant orientations (one feature per orientation).
TEST_F(DeterminismTest, SiftFeaturesBitIdenticalAcrossPoolSizes) {
  SiftParams params;
  params.max_features = 300;
  const SiftDetector detector(params);
  std::vector<int> sizes = {1, 2, 3, 4};
  sizes.push_back(std::max(static_cast<int>(std::thread::hardware_concurrency()), 1));
  bool saw_border_window = false, saw_multi_orientation = false;
  for (const Image& frame : {test_frame(), blob_frame()}) {
    set_parallel_threads(1);
    const FeatureList serial = detector.detect(frame);
    ASSERT_FALSE(serial.empty());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      const Keypoint& kp = serial[i].keypoint;
      // Octave-0 keypoints within a descriptor radius of the border.
      if (kp.octave == 0 &&
          std::min({kp.x, kp.y, static_cast<float>(frame.width() - 1) - kp.x,
                    static_cast<float>(frame.height() - 1) - kp.y}) < 8.0f) {
        saw_border_window = true;
      }
      if (i > 0 && serial[i - 1].keypoint.x == kp.x && serial[i - 1].keypoint.y == kp.y &&
          serial[i - 1].keypoint.angle != kp.angle) {
        saw_multi_orientation = true;
      }
    }
    for (int n : sizes) {
      SCOPED_TRACE("pool size " + std::to_string(n));
      set_parallel_threads(n);
      expect_features_identical(serial, detector.detect(frame));
    }
  }
  EXPECT_TRUE(saw_border_window);
  EXPECT_TRUE(saw_multi_orientation);
}

TEST_F(DeterminismTest, MatchSetBitIdenticalAndEqualToNaiveReference) {
  const Image frame = test_frame();
  SiftParams params;
  params.max_features = 200;
  set_parallel_threads(1);
  const FeatureList features = SiftDetector(params).detect(frame);
  ASSERT_GE(features.size(), 2u);

  // Naive reference: full Euclidean distances, no early exit.
  const MatcherParams mp;
  std::vector<Match> ref;
  for (std::size_t qi = 0; qi < features.size(); ++qi) {
    float best = std::numeric_limits<float>::max(), second = best;
    int best_ti = -1;
    for (std::size_t ti = 0; ti < features.size(); ++ti) {
      float d2 = 0.0f;
      for (int j = 0; j < kDescriptorDim; ++j) {
        const float d = features[qi].descriptor[static_cast<std::size_t>(j)] -
                        features[ti].descriptor[static_cast<std::size_t>(j)];
        d2 += d * d;
      }
      const float dist = std::sqrt(d2);
      if (dist < best) {
        second = best;
        best = dist;
        best_ti = static_cast<int>(ti);
      } else if (dist < second) {
        second = dist;
      }
    }
    if (best_ti >= 0 && best <= mp.max_distance && best < mp.ratio * second) {
      ref.push_back(Match{static_cast<int>(qi), best_ti, best});
    }
  }

  for (int n : pool_sizes()) {
    set_parallel_threads(n);
    const auto matches = match_features(features, features, mp);
    ASSERT_EQ(matches.size(), ref.size());
    for (std::size_t i = 0; i < matches.size(); ++i) {
      EXPECT_EQ(matches[i].query_index, ref[i].query_index);
      EXPECT_EQ(matches[i].train_index, ref[i].train_index);
      EXPECT_NEAR(matches[i].distance, ref[i].distance, 1e-6f);
    }
  }
}

// Scalar reference matcher: for each query the full squared distance to
// every train descriptor, summed in dimension order, a best/second scan
// in train order (the first index wins ties), and the ratio and
// distance tests in squared space.
std::vector<Match> reference_matches(const FeatureList& query, const FeatureList& train,
                                     const MatcherParams& mp) {
  std::vector<Match> ref;
  if (train.size() < 2) return ref;
  const float max_d2 = mp.max_distance * mp.max_distance;
  const float ratio2 = mp.ratio * mp.ratio;
  for (std::size_t qi = 0; qi < query.size(); ++qi) {
    float best = std::numeric_limits<float>::max(), second = best;
    int best_ti = -1;
    for (std::size_t ti = 0; ti < train.size(); ++ti) {
      float d2 = 0.0f;
      for (int j = 0; j < kDescriptorDim; ++j) {
        const float d = query[qi].descriptor[static_cast<std::size_t>(j)] -
                        train[ti].descriptor[static_cast<std::size_t>(j)];
        d2 += d * d;
      }
      if (d2 < best) {
        second = best;
        best = d2;
        best_ti = static_cast<int>(ti);
      } else if (d2 < second) {
        second = d2;
      }
    }
    if (best_ti >= 0 && best <= max_d2 && best < ratio2 * second) {
      ref.push_back(Match{static_cast<int>(qi), best_ti, std::sqrt(best)});
    }
  }
  return ref;
}

Descriptor random_descriptor(Rng& rng) {
  Descriptor d{};
  for (float& v : d) v = static_cast<float>(rng.uniform(0.0, 0.2));
  return d;
}

TEST_F(DeterminismTest, MatcherBitIdenticalToScalarReference) {
  // Train sizes below, at and past the 8-descriptor tile (padding
  // lanes), query lists of a different size, and duplicated train
  // descriptors where the first index must win the tie.
  for (const std::size_t n_train : {2u, 3u, 7u, 8u, 9u, 183u}) {
    SCOPED_TRACE("train " + std::to_string(n_train));
    Rng rng(29 + n_train);
    FeatureList train(n_train);
    for (Feature& f : train) f.descriptor = random_descriptor(rng);
    // Every third descriptor (from index 3 on) repeats an earlier one.
    for (std::size_t t = 3; t < n_train; t += 3) train[t].descriptor = train[t / 3].descriptor;
    FeatureList query(n_train + 5);
    for (std::size_t q = 0; q < query.size(); ++q) {
      if (q % 4 == 3) {
        query[q].descriptor = random_descriptor(rng);  // likely unmatched
        continue;
      }
      // A noisy copy of a train descriptor; every fourth an exact one.
      query[q].descriptor = train[(q * 5) % n_train].descriptor;
      if (q % 4 != 0) {
        for (float& v : query[q].descriptor) v += static_cast<float>(rng.uniform(-0.01, 0.01));
      }
    }
    MatcherParams strict;  // the defaults
    MatcherParams loose;
    loose.ratio = 1.5f;  // accepts ties, so a duplicate's first index shows
    loose.max_distance = 10.0f;
    for (const MatcherParams& mp : {strict, loose}) {
      const std::vector<Match> ref = reference_matches(query, train, mp);
      for (int n : pool_sizes()) {
        set_parallel_threads(n);
        const std::vector<Match> got = match_features(query, train, mp);
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].query_index, ref[i].query_index) << i;
          EXPECT_EQ(got[i].train_index, ref[i].train_index) << i;
          EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i].distance),
                    std::bit_cast<std::uint32_t>(ref[i].distance))
              << i;
        }
      }
    }
    // With ties accepted, a noisy copy of a duplicated descriptor
    // matches the descriptor's first occurrence. (An exact copy of one
    // has best == second == 0 and fails even the loose ratio test.)
    const std::vector<Match> ties = match_features(query, train, loose);
    bool saw_duplicate = false;
    for (const Match& m : ties) {
      const auto q = static_cast<std::size_t>(m.query_index);
      if (q % 4 == 3) continue;  // a random query
      const std::size_t t = (q * 5) % n_train;
      std::size_t first = 0;
      while (train[first].descriptor != train[t].descriptor) ++first;
      EXPECT_EQ(static_cast<std::size_t>(m.train_index), first) << "query " << q;
      saw_duplicate = saw_duplicate || first != t;
    }
    if (n_train >= 7) {
      EXPECT_TRUE(saw_duplicate);
    }
  }
}

TEST_F(DeterminismTest, FisherAndPcaBitIdenticalAcrossPoolSizes) {
  const Image frame = test_frame();
  SiftParams params;
  params.max_features = 200;
  set_parallel_threads(1);
  const FeatureList features = SiftDetector(params).detect(frame);
  std::vector<std::vector<float>> desc;
  for (const auto& f : features) desc.emplace_back(f.descriptor.begin(), f.descriptor.end());
  ASSERT_GE(desc.size(), 64u);

  Pca pca;
  pca.fit(desc, 16);
  const auto reduced_serial = pca.transform(desc);
  Rng rng(1);
  Gmm gmm;
  GmmParams gp;
  gp.components = 4;
  ASSERT_TRUE(gmm.fit(reduced_serial, gp, rng));
  const FisherEncoder encoder(&gmm);
  const auto fv_serial = encoder.encode(reduced_serial);
  ASSERT_FALSE(fv_serial.empty());

  for (int n : pool_sizes()) {
    set_parallel_threads(n);
    const auto reduced = pca.transform(desc);
    ASSERT_EQ(reduced.size(), reduced_serial.size());
    for (std::size_t i = 0; i < reduced.size(); ++i) {
      for (std::size_t j = 0; j < reduced[i].size(); ++j) {
        ASSERT_EQ(reduced[i][j], reduced_serial[i][j]) << i << "," << j;
      }
    }
    const auto fv = encoder.encode(reduced);
    ASSERT_EQ(fv.size(), fv_serial.size());
    for (std::size_t i = 0; i < fv.size(); ++i) ASSERT_EQ(fv[i], fv_serial[i]) << i;
  }
}

TEST_F(DeterminismTest, EnginePipelineIdenticalAcrossPoolSizes) {
  video::WorkplaceScene scene(640, 360);
  auto build_and_run = [&scene](int threads) {
    set_parallel_threads(threads);
    EngineParams params;
    params.working_width = 320;
    params.sift.max_features = 250;
    ArEngine engine(params);
    engine.add_reference("monitor",
                         scene.render_reference(video::SceneObject::kMonitor, 220, 140));
    engine.add_reference("keyboard",
                         scene.render_reference(video::SceneObject::kKeyboard, 180, 70));
    engine.add_reference("table",
                         scene.render_reference(video::SceneObject::kTable, 290, 75));
    EXPECT_TRUE(engine.finalize_training());
    const Image pre = engine.preprocess(scene.render(1.0));
    const ExtractedFeatures feats = engine.extract(pre, scene.render(1.0));
    return engine.encode(feats.features);
  };
  const auto serial = build_and_run(1);
  ASSERT_FALSE(serial.empty());
  const auto parallel = build_and_run(std::max(2, static_cast<int>(std::thread::hardware_concurrency())));
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) ASSERT_EQ(serial[i], parallel[i]) << i;
}

}  // namespace
}  // namespace mar::vision
