// mar_perfbench: one workload of the repository benchmark per process.
//
//   mar_perfbench --workload <ar_live|relay_lossy|sim_paper|sim_fleet>
//                 --seed N --seconds S --trace <0|1> [--trace_dir DIR]
//
// Prints progress and host metadata, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics and the tracing
// overhead with --trace 1. Exits 1 when an output check failed.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common/parallel.h"
#include "report.h"
#include "telemetry/build_info.h"
#include "workloads.h"

namespace pb {
namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric with its unit, in report order. A traced run
// reports all of them; a layer the workload does not touch reads 0.
const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kAll = {
      {"vision.preprocess_ms", "ms"},
      {"vision.extract_ms", "ms"},
      {"vision.encode_ms", "ms"},
      {"vision.lookup_ms", "ms"},
      {"vision.match_ms", "ms"},
      {"vision.codec_ms", "ms"},
      {"vision.features_per_frame", "count"},
      {"net.send_us_per_mb", "us/MB"},
      {"net.poll_us_per_mb", "us/MB"},
      {"net.fragments_sent", "count"},
      {"net.rtx_fragments", "count"},
      {"net.nacks", "count"},
      {"net.fec_repairs", "count"},
      {"net.frames_unrecoverable", "count"},
      {"net.harness_dropped", "count"},
      {"net.first_shot_ratio", "ratio"},
      {"net.loop_busy_ratio", "ratio"},
      {"net.loop_events", "count"},
      {"pipeline.wait_p50_ms", "ms"},
      {"pipeline.wait_p99_ms", "ms"},
      {"gen.lag_p99_ms", "ms"},
      {"expt.build_s", "s"},
      {"expt.run_s", "s"},
      {"expt.result_s", "s"},
      {"sim.events_fired", "count"},
      {"sim.events_cancelled", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.partition_windows", "count"},
      {"sim.messages_posted", "count"},
      {"sim.lookahead_violations", "count"},
      {"sim.partition_speedup", "ratio"},
      {"sim.fleet_probe_success", "ratio"},
      {"expt.plan_machines_s", "s"},
      {"telemetry.trace_wall_ratio", "ratio"},
      {"bench_trace.overhead_frame_e2e_p50_ms", "ms"},
      {"bench_trace.overhead_frame_e2e_tail_ms", "ms"},
      {"bench_trace.overhead_saturation_fps", "frames/s"},
      {"bench_trace.overhead_run_s", "s"},
  };
  return kAll;
}

// Put the layer metrics in report order, 0 for those `out` lacks.
void complete_layer_metrics(Outcome& out) {
  std::vector<Metric> ordered;
  for (const LayerMetric& lm : layer_metrics()) {
    double v = 0.0;
    for (const Metric& m : out.metrics) {
      if (m.name == lm.name) v = m.value;
    }
    ordered.push_back(Metric{lm.name, v, lm.unit});
  }
  out.metrics = std::move(ordered);
}

}  // namespace

void add_trace_overhead(Outcome& out, const Outcome& untraced, const Outcome& traced) {
  for (const char* m : {"frame_e2e_p50_ms", "frame_e2e_tail_ms", "saturation_fps", "run_s"}) {
    out.add(std::string("bench_trace.overhead_") + m, traced.get(m) - untraced.get(m), "");
  }
}

void write_trace(const Args& args, const std::vector<spans::Span>& sp) {
  if (args.trace_dir.empty()) return;
  const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".trace.json";
  if (spans::write_chrome_trace(sp, path)) {
    std::printf("wrote %zu spans to %s\n", sp.size(), path.c_str());
  } else {
    std::printf("could not write %s\n", path.c_str());
  }
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace pb

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: mar_perfbench --workload <ar_live|relay_lossy|sim_paper|sim_fleet> "
               "--seed N --seconds S --trace <0|1> [--trace_dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(val);
    } else if (key == "--trace") {
      args.trace = std::atoi(val) != 0;
    } else if (key == "--trace_dir") {
      args.trace_dir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0.0) return usage();

  pb::Outcome (*run)(const pb::Args&) = nullptr;
  if (args.workload == "ar_live") run = pb::run_ar_live;
  if (args.workload == "relay_lossy") run = pb::run_relay_lossy;
  if (args.workload == "sim_paper") run = pb::run_sim_paper;
  if (args.workload == "sim_fleet") run = pb::run_sim_fleet;
  if (run == nullptr) return usage();

  const auto& build = mar::telemetry::build_info();
  std::printf("host: nproc %d, build %s (library build type %s), seed %llu, %.1f s, trace %d\n",
              pb::nproc(), PERFBENCH_BUILD_TYPE, build.build_type.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  pb::Outcome out;
  try {
    out = run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(), e.what());
    return 2;
  }
  std::printf("host: thread pool %d lanes\n", mar::parallel_threads());
  if (args.trace) pb::complete_layer_metrics(out);
  if (out.attempted < 1) out.correct = false;
  std::fflush(stdout);
  std::printf("%s\n", pb::result_json(out).c_str());
  return out.correct ? 0 : 1;
}
