// Keypoints and SIFT descriptors.
#pragma once

#include <array>
#include <cmath>
#include <vector>

namespace mar::vision {

inline constexpr int kDescriptorDim = 128;
using Descriptor = std::array<float, kDescriptorDim>;

struct Keypoint {
  float x = 0.0f;  // image coordinates at base resolution
  float y = 0.0f;
  float scale = 1.0f;      // absolute scale (sigma at base resolution)
  float angle = 0.0f;      // dominant orientation, radians in [0, 2pi)
  float response = 0.0f;   // |DoG| at the extremum
  int octave = 0;
};

struct Feature {
  Keypoint keypoint;
  Descriptor descriptor{};
};

// Squared Euclidean distance, summed in dimension order.
[[nodiscard]] inline float descriptor_distance_sq(const Descriptor& a, const Descriptor& b) {
  float d2 = 0.0f;
  for (int j = 0; j < kDescriptorDim; ++j) {
    const float d = a[static_cast<std::size_t>(j)] - b[static_cast<std::size_t>(j)];
    d2 += d * d;
  }
  return d2;
}

// Euclidean distance between two descriptors.
[[nodiscard]] inline float descriptor_distance(const Descriptor& a, const Descriptor& b) {
  return std::sqrt(descriptor_distance_sq(a, b));
}

using FeatureList = std::vector<Feature>;

}  // namespace mar::vision
