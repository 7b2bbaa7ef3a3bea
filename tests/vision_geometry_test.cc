#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "vision/homography.h"
#include "vision/lsh.h"
#include "vision/matcher.h"
#include "vision/pose.h"

namespace mar::vision {
namespace {

Homography make_similarity(float scale, float angle, float tx, float ty) {
  Homography h;
  h.h = {scale * std::cos(angle), -scale * std::sin(angle), tx,
         scale * std::sin(angle), scale * std::cos(angle),  ty,
         0.0,                     0.0,                      1.0};
  return h;
}

// --- homography -------------------------------------------------------------

TEST(Homography, IdentityMapsPointsToThemselves) {
  const Homography h = Homography::identity();
  const Point2f p = h.apply({3.0f, 4.0f});
  EXPECT_FLOAT_EQ(p.x, 3.0f);
  EXPECT_FLOAT_EQ(p.y, 4.0f);
}

TEST(Homography, DltRecoversKnownTransform) {
  const Homography truth = make_similarity(1.5f, 0.3f, 20.0f, -10.0f);
  std::vector<Point2f> src, dst;
  for (float x : {0.0f, 100.0f, 0.0f, 100.0f, 50.0f}) {
    for (float y : {0.0f, 0.0f, 80.0f, 80.0f, 40.0f}) {
      src.push_back({x, y});
      dst.push_back(truth.apply({x, y}));
    }
  }
  const auto estimated = homography_dlt(src, dst);
  ASSERT_TRUE(estimated.has_value());
  for (const Point2f& p : src) {
    const Point2f a = truth.apply(p);
    const Point2f b = estimated->apply(p);
    EXPECT_NEAR(a.x, b.x, 0.01f);
    EXPECT_NEAR(a.y, b.y, 0.01f);
  }
}

TEST(Homography, DltNeedsFourPoints) {
  const std::vector<Point2f> three = {{0, 0}, {1, 0}, {0, 1}};
  EXPECT_FALSE(homography_dlt(three, three).has_value());
}

TEST(Homography, DltRejectsSizeMismatch) {
  const std::vector<Point2f> four = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};
  const std::vector<Point2f> five = {{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 2}};
  EXPECT_FALSE(homography_dlt(four, five).has_value());
}

TEST(Homography, FourPointSolveMatchesDlt) {
  // Seeded well-conditioned quadrilaterals under random projective
  // maps: the minimal solve and the eigen-based DLT solve the same
  // system, so they agree to rounding once both have h[8] = 1.
  constexpr double kRelTol = 1e-6;  // the eigen solve of A^T A keeps ~half the digits
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    Homography truth = make_similarity(static_cast<float>(rng.uniform(0.6, 1.6)),
                                       static_cast<float>(rng.uniform(-1.0, 1.0)),
                                       static_cast<float>(rng.uniform(-40, 40)),
                                       static_cast<float>(rng.uniform(-40, 40)));
    truth.h[6] = rng.uniform(-1e-3, 1e-3);
    truth.h[7] = rng.uniform(-1e-3, 1e-3);
    const Point2f corners[4] = {{0, 0}, {200, 0}, {200, 150}, {0, 150}};
    std::array<Point2f, 4> s4, d4;
    for (int i = 0; i < 4; ++i) {
      s4[static_cast<std::size_t>(i)] = {
          corners[i].x + static_cast<float>(rng.uniform(-30, 30)),
          corners[i].y + static_cast<float>(rng.uniform(-30, 30))};
      d4[static_cast<std::size_t>(i)] = truth.apply(s4[static_cast<std::size_t>(i)]);
    }
    const auto minimal = homography_4pt(s4, d4);
    const auto dlt = homography_dlt({s4.begin(), s4.end()}, {d4.begin(), d4.end()});
    ASSERT_TRUE(minimal.has_value()) << "seed " << seed;
    ASSERT_TRUE(dlt.has_value()) << "seed " << seed;
    double scale = 0.0;
    for (double v : dlt->h) scale = std::max(scale, std::fabs(v));
    for (std::size_t k = 0; k < 9; ++k) {
      EXPECT_NEAR(minimal->h[k], dlt->h[k], kRelTol * scale) << "seed " << seed << " h" << k;
    }
    EXPECT_DOUBLE_EQ(minimal->h[8], 1.0);
  }
}

TEST(Homography, FourPointSolveRejectsDegenerateSamples) {
  const std::array<Point2f, 4> d4 = {{{0, 0}, {10, 0}, {10, 10}, {0, 10}}};
  // A repeated source point (distinct indices, same correspondence).
  EXPECT_FALSE(homography_4pt({{{0, 0}, {10, 0}, {10, 0}, {0, 10}}}, d4).has_value());
  // All four source points coincide.
  EXPECT_FALSE(homography_4pt({{{5, 5}, {5, 5}, {5, 5}, {5, 5}}}, d4).has_value());
  // A repeated correspondence on both sides.
  EXPECT_FALSE(homography_4pt({{{0, 0}, {10, 0}, {10, 10}, {10, 10}}},
                              {{{0, 0}, {10, 0}, {10, 10}, {10, 10}}})
                   .has_value());
  // The square itself is fine.
  EXPECT_TRUE(homography_4pt(d4, d4).has_value());
}

TEST(Ransac, RejectsOutliers) {
  Rng rng(1);
  const Homography truth = make_similarity(1.2f, -0.2f, 5.0f, 8.0f);
  std::vector<Point2f> src, dst;
  // 40 inliers.
  for (int i = 0; i < 40; ++i) {
    const Point2f p{static_cast<float>(rng.uniform(0, 200)),
                    static_cast<float>(rng.uniform(0, 150))};
    src.push_back(p);
    dst.push_back(truth.apply(p));
  }
  // 20 gross outliers.
  for (int i = 0; i < 20; ++i) {
    src.push_back({static_cast<float>(rng.uniform(0, 200)),
                   static_cast<float>(rng.uniform(0, 150))});
    dst.push_back({static_cast<float>(rng.uniform(0, 200)),
                   static_cast<float>(rng.uniform(0, 150))});
  }
  RansacParams params;
  const auto result = find_homography_ransac(src, dst, params, rng);
  ASSERT_TRUE(result.has_value());
  EXPECT_GE(result->inliers.size(), 35u);
  EXPECT_LE(result->inliers.size(), 45u);
  // Recovered transform agrees with the truth.
  const Point2f check = result->homography.apply({100.0f, 75.0f});
  const Point2f expected = truth.apply({100.0f, 75.0f});
  EXPECT_NEAR(check.x, expected.x, 1.0f);
  EXPECT_NEAR(check.y, expected.y, 1.0f);
}

TEST(Ransac, FailsWhenTooFewInliers) {
  Rng rng(2);
  std::vector<Point2f> src, dst;
  for (int i = 0; i < 20; ++i) {
    src.push_back({static_cast<float>(rng.uniform(0, 100)),
                   static_cast<float>(rng.uniform(0, 100))});
    dst.push_back({static_cast<float>(rng.uniform(0, 100)),
                   static_cast<float>(rng.uniform(0, 100))});
  }
  RansacParams params;
  params.min_inliers = 15;
  EXPECT_FALSE(find_homography_ransac(src, dst, params, rng).has_value());
}

// Property sweep: random similarity transforms recovered with noise.
class RansacTransformSweep : public ::testing::TestWithParam<std::uint64_t> {};

struct RansacProblem {
  Homography truth;
  std::vector<Point2f> src, dst;
};

// The sweep's setup: 50 noisy inliers of a random similarity and 15
// gross outliers, drawn from `rng` (which RANSAC then continues).
RansacProblem sweep_problem(Rng& rng) {
  RansacProblem pr;
  pr.truth = make_similarity(static_cast<float>(rng.uniform(0.7, 1.5)),
                             static_cast<float>(rng.uniform(-0.5, 0.5)),
                             static_cast<float>(rng.uniform(-30, 30)),
                             static_cast<float>(rng.uniform(-30, 30)));
  for (int i = 0; i < 50; ++i) {
    const Point2f p{static_cast<float>(rng.uniform(0, 300)),
                    static_cast<float>(rng.uniform(0, 200))};
    Point2f q = pr.truth.apply(p);
    q.x += static_cast<float>(rng.gaussian(0, 0.5));
    q.y += static_cast<float>(rng.gaussian(0, 0.5));
    pr.src.push_back(p);
    pr.dst.push_back(q);
  }
  for (int i = 0; i < 15; ++i) {
    pr.src.push_back({static_cast<float>(rng.uniform(0, 300)),
                      static_cast<float>(rng.uniform(0, 200))});
    pr.dst.push_back({static_cast<float>(rng.uniform(0, 300)),
                      static_cast<float>(rng.uniform(0, 200))});
  }
  return pr;
}

TEST_P(RansacTransformSweep, RecoversWithNoiseAndOutliers) {
  Rng rng(GetParam());
  const RansacProblem pr = sweep_problem(rng);
  RansacParams params;
  const auto result = find_homography_ransac(pr.src, pr.dst, params, rng);
  ASSERT_TRUE(result.has_value());
  const Point2f check = result->homography.apply({150.0f, 100.0f});
  const Point2f expected = pr.truth.apply({150.0f, 100.0f});
  EXPECT_NEAR(check.x, expected.x, 3.0f);
  EXPECT_NEAR(check.y, expected.y, 3.0f);
}

INSTANTIATE_TEST_SUITE_P(Transforms, RansacTransformSweep,
                         ::testing::Range<std::uint64_t>(0, 10));

// A projective problem shaped like the matcher's output: noisy inliers,
// gross outliers, and repeated correspondences (several features at
// one keypoint position matching the same reference point), which make
// some 4-point samples degenerate.
RansacProblem projective_problem(Rng& rng) {
  RansacProblem pr;
  pr.truth = make_similarity(static_cast<float>(rng.uniform(0.5, 1.8)),
                             static_cast<float>(rng.uniform(-0.8, 0.8)),
                             static_cast<float>(rng.uniform(-50, 50)),
                             static_cast<float>(rng.uniform(-50, 50)));
  pr.truth.h[6] = rng.uniform(-8e-4, 8e-4);
  pr.truth.h[7] = rng.uniform(-8e-4, 8e-4);
  const int inliers = static_cast<int>(rng.uniform_int(12, 60));
  const int outliers = static_cast<int>(rng.uniform_int(0, inliers));
  const double noise = rng.uniform(0.2, 1.2);
  for (int i = 0; i < inliers; ++i) {
    const Point2f p{static_cast<float>(rng.uniform(0, 320)),
                    static_cast<float>(rng.uniform(0, 180))};
    Point2f q = pr.truth.apply(p);
    q.x += static_cast<float>(rng.gaussian(0, noise));
    q.y += static_cast<float>(rng.gaussian(0, noise));
    pr.src.push_back(p);
    pr.dst.push_back(q);
  }
  for (int i = 0; i < outliers; ++i) {
    pr.src.push_back({static_cast<float>(rng.uniform(0, 320)),
                      static_cast<float>(rng.uniform(0, 180))});
    pr.dst.push_back({static_cast<float>(rng.uniform(0, 320)),
                      static_cast<float>(rng.uniform(0, 180))});
  }
  const int repeats = static_cast<int>(rng.uniform_int(0, (inliers + outliers) / 4));
  for (int i = 0; i < repeats; ++i) {
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pr.src.size()) - 1));
    pr.src.push_back(pr.src[k]);
    pr.dst.push_back(pr.dst[k]);
  }
  return pr;
}

// RANSAC as it was before the minimal solver: the same sampling, with
// every hypothesis taken from the 9x9 eigen DLT.
std::optional<RansacResult> dlt_hypothesis_ransac(const std::vector<Point2f>& src,
                                                  const std::vector<Point2f>& dst,
                                                  const RansacParams& params, Rng& rng) {
  const auto n = static_cast<std::int64_t>(src.size());
  std::vector<int> best_inliers;
  for (int iter = 0; iter < params.iterations; ++iter) {
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
    std::vector<Point2f> s4, d4;
    for (int i : idx) {
      s4.push_back(src[static_cast<std::size_t>(i)]);
      d4.push_back(dst[static_cast<std::size_t>(i)]);
    }
    const auto h = homography_dlt(s4, d4);
    if (!h) continue;
    std::vector<int> inliers;
    for (std::size_t i = 0; i < src.size(); ++i) {
      const Point2f proj = h->apply(src[i]);
      const float dx = proj.x - dst[i].x;
      const float dy = proj.y - dst[i].y;
      if (dx * dx + dy * dy <= params.inlier_threshold * params.inlier_threshold) {
        inliers.push_back(static_cast<int>(i));
      }
    }
    if (inliers.size() > best_inliers.size()) best_inliers = std::move(inliers);
  }
  if (static_cast<int>(best_inliers.size()) < params.min_inliers) return std::nullopt;
  std::vector<Point2f> s_in, d_in;
  for (int i : best_inliers) {
    s_in.push_back(src[static_cast<std::size_t>(i)]);
    d_in.push_back(dst[static_cast<std::size_t>(i)]);
  }
  const auto refined = homography_dlt(s_in, d_in);
  if (!refined) return std::nullopt;
  return RansacResult{*refined, std::move(best_inliers)};
}

void expect_same_ransac(const RansacProblem& pr, const Rng& rng_after_setup) {
  RansacParams params;
  Rng rng_minimal = rng_after_setup, rng_dlt = rng_after_setup;
  const auto minimal = find_homography_ransac(pr.src, pr.dst, params, rng_minimal);
  const auto reference = dlt_hypothesis_ransac(pr.src, pr.dst, params, rng_dlt);
  ASSERT_EQ(minimal.has_value(), reference.has_value());
  if (!minimal) return;
  EXPECT_EQ(minimal->inliers, reference->inliers);
  for (std::size_t k = 0; k < 9; ++k) {
    EXPECT_EQ(minimal->homography.h[k], reference->homography.h[k]) << "h" << k;
  }
}

// Minimal hypotheses change which (equivalent) hypothesis scores a
// sample, never the RNG stream; on these fixed seeds the winning inlier
// set and so the refit pose are the DLT-hypothesis ones bit for bit.
TEST(Ransac, MinimalHypothesesMatchDltHypothesesOnSweepSetups) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE("sweep seed " + std::to_string(seed));
    Rng rng(seed);
    const RansacProblem pr = sweep_problem(rng);
    expect_same_ransac(pr, rng);
  }
}

TEST(Ransac, MinimalHypothesesMatchDltHypothesesOnProjectiveProblems) {
  for (std::uint64_t seed = 100; seed < 160; ++seed) {
    SCOPED_TRACE("problem seed " + std::to_string(seed));
    Rng rng(seed);
    const RansacProblem pr = projective_problem(rng);
    expect_same_ransac(pr, rng);
  }
}

// --- matcher -------------------------------------------------------------------

Feature feature_with(float fill, int hot_bin) {
  Feature f;
  f.descriptor.fill(fill);
  f.descriptor[static_cast<std::size_t>(hot_bin)] = 1.0f;
  return f;
}

TEST(Matcher, FindsObviousMatch) {
  const FeatureList query = {feature_with(0.0f, 3)};
  const FeatureList train = {feature_with(0.0f, 3), feature_with(0.0f, 90)};
  const auto matches = match_features(query, train);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].train_index, 0);
  EXPECT_NEAR(matches[0].distance, 0.0f, 1e-6);
}

TEST(Matcher, RatioTestRejectsAmbiguous) {
  // The query sits equidistant between two train descriptors: the
  // best/second-best ratio is ~1, so the match must be rejected.
  FeatureList train = {feature_with(0.0f, 3), feature_with(0.0f, 3)};
  train[0].descriptor[4] = 0.05f;
  train[1].descriptor[5] = 0.05f;
  const FeatureList query = {feature_with(0.0f, 3)};
  EXPECT_TRUE(match_features(query, train).empty());
}

TEST(Matcher, DistanceCutoffRejectsFar) {
  const FeatureList query = {feature_with(0.0f, 3)};
  const FeatureList train = {feature_with(0.0f, 90), feature_with(0.0f, 50)};
  MatcherParams params;
  params.max_distance = 0.5f;
  EXPECT_TRUE(match_features(query, train, params).empty());
}

TEST(Matcher, NeedsTwoTrainFeatures) {
  const FeatureList query = {feature_with(0.0f, 3)};
  const FeatureList train = {feature_with(0.0f, 3)};
  EXPECT_TRUE(match_features(query, train).empty());
}

// --- LSH -----------------------------------------------------------------------------

TEST(Lsh, NearestFindsSelf) {
  Rng rng(3);
  LshIndex index(16, LshParams{}, rng);
  std::vector<std::vector<float>> items;
  for (std::uint32_t i = 0; i < 20; ++i) {
    std::vector<float> v(16);
    for (float& x : v) x = static_cast<float>(rng.gaussian(0, 1));
    index.insert(i, v);
    items.push_back(std::move(v));
  }
  for (std::uint32_t i = 0; i < 20; ++i) {
    const auto nearest = index.nearest(items[i], 1);
    ASSERT_EQ(nearest.size(), 1u);
    EXPECT_EQ(nearest[0], i);
  }
}

TEST(Lsh, QueryRanksByCollisions) {
  Rng rng(4);
  LshIndex index(8, LshParams{}, rng);
  std::vector<float> a(8, 1.0f);
  std::vector<float> near_a = a;
  near_a[0] = 1.1f;
  std::vector<float> far(8, -1.0f);
  index.insert(0, a);
  index.insert(1, far);
  const auto candidates = index.query(near_a);
  ASSERT_FALSE(candidates.empty());
  EXPECT_EQ(candidates[0].id, 0u);
}

TEST(Lsh, NearestPrefersCloserVector) {
  Rng rng(5);
  LshIndex index(12, LshParams{}, rng);
  std::vector<float> target(12, 0.5f);
  std::vector<float> close = target;
  close[3] += 0.05f;
  std::vector<float> medium = target;
  for (std::size_t i = 0; i < 6; ++i) medium[i] = -0.2f;
  index.insert(7, close);
  index.insert(8, medium);
  // LSH is approximate: the far vector may not collide in any table,
  // so only the top result is guaranteed.
  const auto nearest = index.nearest(target, 2);
  ASSERT_GE(nearest.size(), 1u);
  EXPECT_EQ(nearest[0], 7u);
}

TEST(Lsh, FallsBackToLinearScan) {
  Rng rng(6);
  LshParams params;
  params.tables = 1;
  params.bits_per_table = 16;  // hard to collide
  LshIndex index(4, params, rng);
  index.insert(1, {1.0f, 0.0f, 0.0f, 0.0f});
  // Query orthogonal-ish vector: likely no bucket collision, but
  // nearest() must still return something.
  const auto nearest = index.nearest({-1.0f, 0.2f, 0.0f, 0.0f}, 1);
  ASSERT_EQ(nearest.size(), 1u);
}

TEST(Lsh, SizeTracksInsertions) {
  Rng rng(7);
  LshIndex index(4, LshParams{}, rng);
  EXPECT_EQ(index.size(), 0u);
  index.insert(1, {1, 2, 3, 4});
  index.insert(2, {4, 3, 2, 1});
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.dim(), 4);
}

// --- pose / tracker ------------------------------------------------------------------------

TEST(Pose, ProjectCornersIdentity) {
  const auto corners = project_corners(Homography::identity(), 100.0f, 50.0f);
  EXPECT_FLOAT_EQ(corners[0].x, 0.0f);
  EXPECT_FLOAT_EQ(corners[1].x, 100.0f);
  EXPECT_FLOAT_EQ(corners[2].y, 50.0f);
  EXPECT_FLOAT_EQ(corners[3].x, 0.0f);
}

Detection detection_at(std::uint32_t id, float cx, float cy) {
  Detection d;
  d.object_id = id;
  d.corners = {Point2f{cx - 10, cy - 10}, Point2f{cx + 10, cy - 10}, Point2f{cx + 10, cy + 10},
               Point2f{cx - 10, cy + 10}};
  d.inliers = 10;
  d.score = 1.0f;
  return d;
}

TEST(Tracker, CreatesTrackPerDetection) {
  ObjectTracker tracker;
  const auto& tracks = tracker.update({detection_at(1, 50, 50), detection_at(2, 100, 100)});
  EXPECT_EQ(tracks.size(), 2u);
  EXPECT_NE(tracks[0].track_id, tracks[1].track_id);
}

TEST(Tracker, AssociatesAcrossFrames) {
  ObjectTracker tracker;
  tracker.update({detection_at(1, 50, 50)});
  const auto id = tracker.tracks()[0].track_id;
  tracker.update({detection_at(1, 55, 52)});  // small motion
  ASSERT_EQ(tracker.tracks().size(), 1u);
  EXPECT_EQ(tracker.tracks()[0].track_id, id);
  EXPECT_EQ(tracker.tracks()[0].missed, 0);
}

TEST(Tracker, SmoothsCorners) {
  ObjectTracker::Params params;
  params.smoothing = 0.5f;
  ObjectTracker tracker(params);
  tracker.update({detection_at(1, 50, 50)});
  tracker.update({detection_at(1, 60, 50)});
  // Smoothed center is between the two observations.
  const Point2f c = tracker.tracks()[0].detection.center();
  EXPECT_GT(c.x, 50.0f);
  EXPECT_LT(c.x, 60.0f);
}

TEST(Tracker, LargeJumpStartsNewTrack) {
  ObjectTracker tracker;
  tracker.update({detection_at(1, 50, 50)});
  tracker.update({detection_at(1, 500, 500)});  // beyond max_center_jump
  EXPECT_EQ(tracker.tracks().size(), 2u);
}

TEST(Tracker, DifferentObjectsDoNotAssociate) {
  ObjectTracker tracker;
  tracker.update({detection_at(1, 50, 50)});
  tracker.update({detection_at(2, 51, 51)});
  EXPECT_EQ(tracker.tracks().size(), 2u);
}

TEST(Tracker, ExpiresAfterMissedFrames) {
  ObjectTracker::Params params;
  params.max_missed = 2;
  ObjectTracker tracker(params);
  tracker.update({detection_at(1, 50, 50)});
  for (int i = 0; i < 3; ++i) tracker.update({});
  EXPECT_TRUE(tracker.tracks().empty());
}

TEST(Tracker, ResetClearsTracks) {
  ObjectTracker tracker;
  tracker.update({detection_at(1, 50, 50)});
  tracker.reset();
  EXPECT_TRUE(tracker.tracks().empty());
}

}  // namespace
}  // namespace mar::vision
