#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "vision/fast_detector.h"
#include "vision/matcher.h"
#include "vision/sift.h"
#include "video/scene.h"

namespace mar::vision {
namespace {

// Checkerboard: corners everywhere.
Image checkerboard(int w, int h, int cell) {
  Image img(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      img.at(x, y) = ((x / cell + y / cell) % 2) ? 0.9f : 0.1f;
    }
  }
  return img;
}

Image scene_frame() {
  static Image img = resize(video::WorkplaceScene(640, 360).render(0.0), 320, 180);
  return img;
}

TEST(FastDetector, FindsCheckerboardCorners) {
  const Image img = checkerboard(160, 120, 16);
  FastDetector detector;
  const FeatureList features = detector.detect(img);
  EXPECT_GT(features.size(), 20u);
  // Detected corners should sit near cell boundaries.
  for (const Feature& f : features) {
    const float mx = std::fmod(f.keypoint.x, 16.0f);
    const float my = std::fmod(f.keypoint.y, 16.0f);
    const float dist_x = std::min(mx, 16.0f - mx);
    const float dist_y = std::min(my, 16.0f - my);
    EXPECT_LE(std::min(dist_x, dist_y), 5.0f);
  }
}

TEST(FastDetector, FlatImageHasNoFeatures) {
  FastDetector detector;
  EXPECT_TRUE(detector.detect(Image(128, 128, 0.5f)).empty());
}

TEST(FastDetector, TinyImageHandled) {
  FastDetector detector;
  EXPECT_TRUE(detector.detect(Image(8, 8, 0.5f)).empty());
}

TEST(FastDetector, RespectsMaxFeatures) {
  FastParams params;
  params.max_features = 10;
  const FeatureList features = FastDetector(params).detect(checkerboard(160, 120, 12));
  EXPECT_LE(features.size(), 10u);
  EXPECT_GT(features.size(), 5u);
}

TEST(FastDetector, NonMaxSuppressionSpacesCorners) {
  FastParams params;
  params.nms_radius = 8;
  const FeatureList features = FastDetector(params).detect(checkerboard(160, 120, 16));
  for (std::size_t i = 0; i < features.size(); ++i) {
    for (std::size_t j = i + 1; j < features.size(); ++j) {
      const float dx = features[i].keypoint.x - features[j].keypoint.x;
      const float dy = features[i].keypoint.y - features[j].keypoint.y;
      ASSERT_GT(dx * dx + dy * dy, 64.0f);
    }
  }
}

TEST(FastDetector, DescriptorsAreUnitNorm) {
  const FeatureList features = FastDetector().detect(scene_frame());
  ASSERT_GT(features.size(), 20u);
  for (const Feature& f : features) {
    float norm = 0.0f;
    for (float v : f.descriptor) norm += v * v;
    ASSERT_NEAR(std::sqrt(norm), 1.0f, 0.01f);
  }
}

TEST(FastDetector, Deterministic) {
  const Image img = scene_frame();
  FastDetector detector;
  const FeatureList a = detector.detect(img);
  const FeatureList b = detector.detect(img);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].keypoint.x, b[i].keypoint.x);
    EXPECT_EQ(a[i].descriptor, b[i].descriptor);
  }
}

TEST(FastDetector, DescriptorsMatchAcrossTranslation) {
  const Image big = resize(video::WorkplaceScene(640, 360).render(0.0), 400, 225);
  Image a(320, 180), b(320, 180);
  for (int y = 0; y < 180; ++y) {
    for (int x = 0; x < 320; ++x) {
      a.at(x, y) = big.at(x, y);
      b.at(x, y) = big.at(x + 12, y + 8);
    }
  }
  FastParams params;
  params.threshold = 0.02f;  // the synthetic scene is low-contrast
  FastDetector detector(params);
  const FeatureList fa = detector.detect(a);
  const FeatureList fb = detector.detect(b);
  ASSERT_GT(fa.size(), 15u);
  ASSERT_GT(fb.size(), 15u);

  MatcherParams mp;
  mp.max_distance = 1.0f;
  const auto matches = match_features(fa, fb, mp);
  ASSERT_GT(matches.size(), 8u);
  int consistent = 0;
  for (const Match& m : matches) {
    const auto& ka = fa[static_cast<std::size_t>(m.query_index)].keypoint;
    const auto& kb = fb[static_cast<std::size_t>(m.train_index)].keypoint;
    if (std::abs((ka.x - kb.x) - 12.0f) < 3.0f && std::abs((ka.y - kb.y) - 8.0f) < 3.0f) {
      ++consistent;
    }
  }
  EXPECT_GT(static_cast<double>(consistent) / static_cast<double>(matches.size()), 0.5);
}

TEST(FastDetector, FasterThanSift) {
  // Each detector's time is its fastest of several repetitions, taken
  // alternately, so a burst of load from another process slows one
  // repetition of each rather than deciding the comparison.
  const Image img = scene_frame();
  const auto time_it = [&img](const auto& detector) {
    const auto start = std::chrono::steady_clock::now();
    (void)detector.detect(img);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  const FastDetector fast;
  const SiftDetector sift;
  double fast_s = std::numeric_limits<double>::max();
  double sift_s = std::numeric_limits<double>::max();
  for (int rep = 0; rep < 5; ++rep) {
    fast_s = std::min(fast_s, time_it(fast));
    sift_s = std::min(sift_s, time_it(sift));
  }
  EXPECT_LT(fast_s, sift_s / 2.0);  // the whole point of the substitution
}

}  // namespace
}  // namespace mar::vision
