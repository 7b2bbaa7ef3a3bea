// Critical-path extraction: turn one traced frame's raw span soup into
// a blocking chain with every nanosecond blamed on exactly one
// component.
//
// The Tracer records what each hop *did* (queue waits, service spans,
// link transits, fetch round trips) across many tracks; this module
// answers what the frame *waited on*. The extractor sorts the frame's
// events by timestamp, pairs them with telemetry::SpanPairing (the one
// pairing walk the exporters and expt::reconstruct_frame also read),
// clips everything to the frame's envelope (frame_e2e when present,
// first..last event otherwise), and then attributes each elementary
// time slice to the highest-priority span covering it:
//
//   state_fetch > rtx_stall > rpc_handoff > sidecar_queue >
//   socket_buffer > service > link (upload/network/download) > gap
//
// Priority encodes nesting: a sift-side service span recorded inside a
// matching state-fetch round trip is the *mechanism* of the fetch, not
// an independent cost, so its slices fold into kStateFetch — which is
// exactly how the paper's Fig. 2/8 decompositions count state
// handling. Service time that remains after higher-priority spans are
// carved out is true self-time, reported per stage next to the queue
// wait so "slow stage" and "backed-up stage" stay distinguishable.
//
// Malformed timelines are handled explicitly rather than silently:
// a begin with no end (run clipped mid-flight, or the replica died) is
// clamped to the frame's last event and counted in open_spans; an end
// with no begin (the PR 4 failover respawn finishes a span whose begin
// happened on the dead replica's track) is counted in orphan_ends and
// contributes no interval. A frame whose chain ends at a terminal drop
// instant (spans::is_terminal_drop) keeps that name as its verdict, so
// blame reports can split delivered from dropped populations.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "common/types.h"
#include "telemetry/trace.h"

namespace mar::telemetry {

// Where a slice of a frame's lifetime went. Order is the attribution
// priority, strongest claim first.
enum class PathComponent : std::uint8_t {
  kStateFetch = 0,   // matching <-> sift state round trip (everything inside)
  kRtxStall,         // link transit stalled on NACK retransmission rounds
  kRpc,              // sidecar -> service RPC hand-off overhead
  kQueue,            // sidecar queue wait
  kSocketBuffer,     // scAtteR busy-buffer wait ahead of dispatch
  kService,          // stage compute self-time
  kUpload,           // first link hop: client -> edge
  kNetwork,          // inter-stage link transit
  kDownload,         // last link hop of a delivered frame: result -> client
  kGap,              // envelope time no recorded span covers
};
inline constexpr int kNumPathComponents = 10;

[[nodiscard]] const char* to_string(PathComponent c);

// One maximal run of envelope time attributed to a single component.
struct PathSegment {
  SimTime start = 0;
  SimTime end = 0;
  PathComponent component = PathComponent::kGap;
  Stage stage = Stage::kPrimary;  // stage of the winning span

  [[nodiscard]] double dur_ms() const { return to_millis(end - start); }
};

struct CriticalPath {
  std::uint32_t trace_id = 0;
  std::uint32_t client = 0;
  std::uint64_t frame = 0;
  SimTime start = 0;  // envelope: frame_e2e begin, else first event
  SimTime end = 0;    // frame_e2e end, else last event
  bool delivered = false;  // frame_e2e closed
  // "result", a terminal drop/loss name ("drop_stale", "pkt_loss",
  // ...), or "incomplete".
  std::string verdict = "incomplete";

  // Envelope milliseconds per component; sums to total_ms().
  std::array<double, kNumPathComponents> blame_ms{};
  // Queue wait (sidecar queue + socket buffer) vs service self-time,
  // split per pipeline stage.
  std::array<double, kNumStages> stage_queue_ms{};
  std::array<double, kNumStages> stage_service_ms{};

  // Malformed-timeline accounting (see file comment).
  int open_spans = 0;   // begins clamped to the envelope end
  int orphan_ends = 0;  // ends with no matching begin on their track

  std::vector<PathSegment> segments;  // sorted, non-overlapping, covering

  [[nodiscard]] double total_ms() const { return to_millis(end - start); }
  [[nodiscard]] double attributed_ms() const {
    return total_ms() - blame_ms[static_cast<std::size_t>(PathComponent::kGap)];
  }
  [[nodiscard]] double blame(PathComponent c) const {
    return blame_ms[static_cast<std::size_t>(c)];
  }
};

// Extract the critical path from the events of ONE frame (all sharing
// a trace_id; callers filter). Events may arrive in any order; ties on
// timestamp keep record order, matching the Tracer ring.
[[nodiscard]] CriticalPath extract_critical_path(std::vector<const TraceEvent*> events);

inline CriticalPath extract_critical_path(const TraceEvent* events, std::size_t n) {
  std::vector<const TraceEvent*> refs(n);
  for (std::size_t i = 0; i < n; ++i) refs[i] = &events[i];
  return extract_critical_path(std::move(refs));
}

inline CriticalPath extract_critical_path(const std::vector<TraceEvent>& events) {
  return extract_critical_path(events.data(), events.size());
}

// Human-readable single-frame blame: the segment chain plus a
// per-component self-time table (frame_forensics --blame).
[[nodiscard]] std::string render_critical_path(const CriticalPath& cp);

}  // namespace mar::telemetry
