#include "vision/matcher.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "common/simd.h"
#include "telemetry/profiler.h"

namespace mar::vision {

namespace {

// Train descriptors per tile: two 4-float lanes.
constexpr int kTile = 2 * simd::kLanes;

// `train` transposed into dim-major tiles of kTile descriptors:
// tile g holds block[(g * kDescriptorDim + j) * kTile + lane] =
// train[g * kTile + lane].descriptor[j]. The last tile is padded with
// zero descriptors whose distances are never read.
std::vector<float> transpose_tiles(const FeatureList& train) {
  const std::size_t tiles = (train.size() + kTile - 1) / kTile;
  std::vector<float> block(tiles * kDescriptorDim * kTile, 0.0f);
  for (std::size_t t = 0; t < train.size(); ++t) {
    float* tile = block.data() + (t / kTile) * kDescriptorDim * kTile + t % kTile;
    for (int j = 0; j < kDescriptorDim; ++j) {
      tile[static_cast<std::size_t>(j) * kTile] = train[t].descriptor[static_cast<std::size_t>(j)];
    }
  }
  return block;
}

}  // namespace

std::vector<Match> match_features(const FeatureList& query, const FeatureList& train,
                                  const MatcherParams& params) {
  std::vector<Match> matches;
  if (train.size() < 2) return matches;

  // All comparisons run in squared-distance space (monotone in the
  // Euclidean distance), so the per-pair sqrt disappears; one sqrt per
  // accepted match keeps Match::distance Euclidean.
  const float max_d2 = params.max_distance * params.max_distance;
  const float ratio2 = params.ratio * params.ratio;
  const std::vector<float> block = transpose_tiles(train);

  // Query descriptors are independent: fill a per-query slot in
  // parallel, then compact in query order so the output matches the
  // serial scan exactly.
  std::vector<Match> slots(query.size(), Match{0, -1, 0.0f});
  parallel_for(0, static_cast<std::int64_t>(query.size()), 32,
               [&](std::int64_t q0, std::int64_t q1) {
                 telemetry::ProfScope prof("match_distance");
                 for (std::int64_t qi = q0; qi < q1; ++qi) {
                   float best = std::numeric_limits<float>::max();
                   float second = std::numeric_limits<float>::max();
                   int best_ti = -1;
                   const Descriptor& qd = query[static_cast<std::size_t>(qi)].descriptor;
                   for (std::size_t t0 = 0; t0 < train.size(); t0 += kTile) {
                     // Each lane sums (q[j] - t[j])^2 for j = 0..127 in
                     // order, exactly descriptor_distance_sq for its
                     // train descriptor.
                     const float* tile = block.data() + t0 * kDescriptorDim;
                     simd::F32x4 lo = simd::splat(0.0f), hi = lo;
                     for (int j = 0; j < kDescriptorDim; ++j) {
                       const simd::F32x4 q = simd::splat(qd[static_cast<std::size_t>(j)]);
                       const simd::F32x4 dlo = q - simd::load(tile + j * kTile);
                       const simd::F32x4 dhi = q - simd::load(tile + j * kTile + simd::kLanes);
                       lo += dlo * dlo;
                       hi += dhi * dhi;
                     }
                     float d2[kTile];
                     simd::store(d2, lo);
                     simd::store(d2 + simd::kLanes, hi);
                     // The best/second update in train order, as in a
                     // one-at-a-time scan.
                     const std::size_t n = std::min<std::size_t>(kTile, train.size() - t0);
                     for (std::size_t l = 0; l < n; ++l) {
                       if (d2[l] < best) {
                         second = best;
                         best = d2[l];
                         best_ti = static_cast<int>(t0 + l);
                       } else if (d2[l] < second) {
                         second = d2[l];
                       }
                     }
                   }
                   if (best_ti >= 0 && best <= max_d2 && best < ratio2 * second) {
                     slots[static_cast<std::size_t>(qi)] =
                         Match{static_cast<int>(qi), best_ti, std::sqrt(best)};
                   }
                 }
               });
  for (const Match& m : slots) {
    if (m.train_index >= 0) matches.push_back(m);
  }
  return matches;
}

}  // namespace mar::vision
