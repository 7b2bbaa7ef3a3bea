// Frame forensics CLI: reconstruct hop-by-hop timelines of traced
// frames from a raw trace-event log.
//
//   ./build/examples/frame_forensics events.log --worst 3
//   ./build/examples/frame_forensics events.log --trace 421
//   ./build/examples/frame_forensics events.log --dropped
//   ./build/examples/frame_forensics events.log --list
//
// The log is what Tracer::write_event_log() produces — e.g.
// `experiment_cli ... --retain --events_out events.log`, or the
// events file bench/tail_forensics writes. Each reconstruction shows
// the frame's capture→verdict timeline (link transit, sidecar queue
// wait, RPC hand-off, service compute, state-fetch loop, drop verdict)
// and a per-hop budget table; frames kept by tail retention are
// annotated with their retention reason.
//
//   --trace ID   reconstruct one frame by trace id
//   --blame ID   critical path of one frame: each envelope slice blamed
//                on a component, with per-component self-times
//   --worst N    the N frames with the widest capture→verdict span
//   --dropped    every frame whose timeline ends in a drop/loss
//   --list       one summary line per traced frame
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "expt/forensics.h"
#include "telemetry/critical_path.h"

using namespace mar;
using namespace mar::expt;

namespace {

int render_ids(const TraceLog& log,
               const std::unordered_map<std::uint32_t, const FrameEvents*>& frames,
               const std::vector<std::uint32_t>& ids, const char* what) {
  if (ids.empty()) {
    std::printf("no %s frames in the log\n", what);
    return 0;
  }
  for (std::uint32_t id : ids) {
    std::fputs(render_timeline(reconstruct_frame(log, *frames.at(id))).c_str(), stdout);
    std::fputc('\n', stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: frame_forensics <events.log> "
                 "[--trace ID | --blame ID | --worst N | --dropped | --list]\n");
    return 2;
  }
  const auto log = load_trace_log(argv[1]);
  if (!log) {
    std::fprintf(stderr, "failed to read %s (not a mar-trace-events log?)\n", argv[1]);
    return 1;
  }

  std::string mode = "--worst";
  std::uint32_t trace_id = 0;
  std::size_t worst_n = 3;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : "0"; };
    if (arg == "--trace" || arg == "--blame") {
      mode = arg;
      trace_id = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--worst") {
      mode = arg;
      worst_n = static_cast<std::size_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--dropped" || arg == "--list") {
      mode = arg;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  // Every mode reads the log's per-frame grouping, built once.
  const std::vector<FrameEvents> groups = group_by_trace(*log);
  std::unordered_map<std::uint32_t, const FrameEvents*> frames;
  for (const FrameEvents& g : groups) frames.emplace(g.trace_id, &g);

  if (mode == "--trace" || mode == "--blame") {
    const auto it = frames.find(trace_id);
    if (it == frames.end()) {
      std::fprintf(stderr, "trace %u not found in the log\n", trace_id);
      return 1;
    }
    const FrameEvents& frame = *it->second;
    std::fputs(mode == "--trace"
                   ? render_timeline(reconstruct_frame(*log, frame)).c_str()
                   : telemetry::render_critical_path(
                         telemetry::extract_critical_path(frame.events)).c_str(),
               stdout);
    return 0;
  }
  if (mode == "--worst") {
    return render_ids(*log, frames, worst_trace_ids(*log, worst_n), "traced");
  }
  if (mode == "--dropped") return render_ids(*log, frames, dropped_trace_ids(*log), "dropped");

  // --list: one line per frame.
  std::printf("%zu traced frames\n", groups.size());
  for (const FrameEvents& g : groups) {
    const FrameTimeline tl = reconstruct_frame(*log, g);
    std::printf("trace %-8u client %-3u frame %-6llu span %8.3f ms  verdict %-13s %s\n",
                tl.trace_id, tl.client, static_cast<unsigned long long>(tl.frame),
                tl.span_ms(), tl.verdict.c_str(),
                tl.retain_reason != telemetry::RetainReason::kNone
                    ? telemetry::to_string(tl.retain_reason)
                    : "");
  }
  return 0;
}
