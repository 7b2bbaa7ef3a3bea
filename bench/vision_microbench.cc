// Microbenchmarks of the real vision kernels (google-benchmark): the
// per-stage costs that motivate the paper's GPU offloading. These are
// the CPU-native counterparts of the calibrated stage costs the
// simulator charges.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "vision/engine.h"
#include "vision/fisher.h"
#include "vision/gmm.h"
#include "vision/homography.h"
#include "vision/lsh.h"
#include "vision/matcher.h"
#include "vision/pca.h"
#include "vision/sift.h"
#include "video/scene.h"

namespace {

using namespace mar;

const video::WorkplaceScene& scene() {
  static video::WorkplaceScene s(640, 360);
  return s;
}

vision::Image frame_480() {
  static vision::Image img = vision::resize(scene().render(0.0), 480, 270);
  return img;
}

vision::FeatureList features() {
  static vision::FeatureList f = [] {
    vision::SiftParams params;
    params.max_features = 300;
    return vision::SiftDetector(params).detect(frame_480());
  }();
  return f;
}

std::vector<std::vector<float>> descriptor_matrix() {
  std::vector<std::vector<float>> out;
  for (const auto& f : features()) {
    out.emplace_back(f.descriptor.begin(), f.descriptor.end());
  }
  return out;
}

void BM_Preprocess(benchmark::State& state) {
  const vision::Image full = scene().render(0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vision::resize(full, 480, 270));
  }
}
BENCHMARK(BM_Preprocess)->Unit(benchmark::kMillisecond);

// Kernels below sweep the pool size (second arg) so the per-stage cost
// trajectory is tracked per thread count; counters label the lanes.
// UseRealTime: the pool's workers do most of the work, and CPU time
// counts only the calling thread, so these entries report wall time.
void BM_SiftDetect(benchmark::State& state) {
  mar::set_parallel_threads(static_cast<int>(state.range(1)));
  const vision::Image img = frame_480();
  vision::SiftParams params;
  params.max_features = static_cast<int>(state.range(0));
  const vision::SiftDetector detector(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.detect(img));
  }
  state.counters["threads"] = static_cast<double>(state.range(1));
  mar::set_parallel_threads(0);
}
BENCHMARK(BM_SiftDetect)
    ->ArgNames({"features", "threads"})
    ->Args({150, 1})
    ->Args({300, 1})
    ->Args({300, 2})
    ->Args({300, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_Blur(benchmark::State& state) {
  mar::set_parallel_threads(static_cast<int>(state.range(0)));
  const vision::Image img = frame_480();
  for (auto _ : state) {
    benchmark::DoNotOptimize(vision::gaussian_blur(img, 1.6f));
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  mar::set_parallel_threads(0);
}
BENCHMARK(BM_Blur)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_Match(benchmark::State& state) {
  mar::set_parallel_threads(static_cast<int>(state.range(0)));
  const auto query = features();
  for (auto _ : state) {
    benchmark::DoNotOptimize(vision::match_features(query, query));
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  mar::set_parallel_threads(0);
}
BENCHMARK(BM_Match)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_PcaTransform(benchmark::State& state) {
  const auto desc = descriptor_matrix();
  vision::Pca pca;
  pca.fit(desc, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pca.transform(desc));
  }
}
BENCHMARK(BM_PcaTransform)->Unit(benchmark::kMillisecond);

void BM_FisherEncode(benchmark::State& state) {
  mar::set_parallel_threads(static_cast<int>(state.range(0)));
  const auto desc = descriptor_matrix();
  vision::Pca pca;
  pca.fit(desc, 32);
  const auto reduced = pca.transform(desc);
  Rng rng(1);
  vision::Gmm gmm;
  vision::GmmParams params;
  params.components = 8;
  gmm.fit(reduced, params, rng);
  const vision::FisherEncoder encoder(&gmm);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(reduced));
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  mar::set_parallel_threads(0);
}
BENCHMARK(BM_FisherEncode)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_LshQuery(benchmark::State& state) {
  Rng rng(2);
  vision::LshIndex index(512, vision::LshParams{}, rng);
  std::vector<float> query(512);
  for (std::uint32_t i = 0; i < 64; ++i) {
    std::vector<float> v(512);
    for (float& x : v) x = static_cast<float>(rng.gaussian(0, 1));
    index.insert(i, v);
    if (i == 0) query = v;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.nearest(query, 2));
  }
}
BENCHMARK(BM_LshQuery)->Unit(benchmark::kMicrosecond);

void BM_MatchAndRansac(benchmark::State& state) {
  const auto query = features();
  Rng rng(3);
  for (auto _ : state) {
    const auto matches = vision::match_features(query, query);
    std::vector<vision::Point2f> src, dst;
    for (const auto& m : matches) {
      const auto& a = query[static_cast<std::size_t>(m.train_index)].keypoint;
      const auto& b = query[static_cast<std::size_t>(m.query_index)].keypoint;
      src.push_back({a.x, a.y});
      dst.push_back({b.x, b.y});
    }
    benchmark::DoNotOptimize(
        vision::find_homography_ransac(src, dst, vision::RansacParams{}, rng));
  }
}
BENCHMARK(BM_MatchAndRansac)->Unit(benchmark::kMillisecond);

void BM_SceneRender(benchmark::State& state) {
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scene().render(t));
    t += 1.0 / 30.0;
  }
}
BENCHMARK(BM_SceneRender)->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN, plus a default JSON summary (BENCH_vision.json in the
// working directory) so the per-stage perf trajectory is recorded on
// every run; pass --benchmark_out=... to override.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_vision.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int arg_count = static_cast<int>(args.size());
  benchmark::Initialize(&arg_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(arg_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
