// Frame forensics: reconstruct one frame's hop-by-hop timeline from
// recorded trace events.
//
// Input is either the live Tracer ring (from_tracer()) or an event log
// written by Tracer::write_event_log() and read back with
// load_trace_log() — the format the frame_forensics CLI consumes.
// group_by_trace() splits a log into per-frame event lists once; the
// reconstruction reads one of them through telemetry::SpanPairing (the
// pairing walk the exporters and the critical-path extractor share),
// keeps kComplete spans and instants as-is, and derives the frame's
// verdict: a delivered result (frame_e2e closed), a terminal drop
// instant (spans::is_terminal_drop), or an incomplete timeline (the
// run ended mid-flight). The synthetic `retained` instant, when
// present, names why tail retention kept the trace.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/time.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/trace.h"

namespace mar::expt {

// A trace snapshot with stable storage for event-name strings (the
// Tracer stores static `const char*` names; a log read back from disk
// needs to own them).
struct TraceLog {
  std::vector<telemetry::TraceEvent> events;
  std::unordered_map<std::uint32_t, std::string> track_names;
  // Backing store for names of parsed events; deque keeps pointers
  // stable as it grows.
  std::deque<std::string> name_storage;

  [[nodiscard]] std::string track_label(std::uint32_t track) const {
    auto it = track_names.find(track);
    return it == track_names.end() ? "track#" + std::to_string(track) : it->second;
  }
};

// Snapshot the live Tracer (events + track names).
[[nodiscard]] TraceLog from_tracer(const telemetry::Tracer& tracer);

// Parse a "# mar-trace-events v1" log. Returns std::nullopt when the
// file cannot be read or the header is wrong; unparseable lines are
// skipped.
[[nodiscard]] std::optional<TraceLog> load_trace_log(const std::string& path);
[[nodiscard]] std::optional<TraceLog> parse_trace_log(const std::string& text);

// One reconstructed hop of a frame's journey.
struct TimelineHop {
  SimTime start = 0;  // ns
  SimTime end = 0;    // ns; == start for instants and unmatched begins
  std::string track;  // resolved track label
  std::string name;   // span/event name
  Stage stage = Stage::kPrimary;
  telemetry::TracePhase phase = telemetry::TracePhase::kInstant;
  double value = 0.0;
  bool open = false;  // begin with no matching end (clipped/in-flight)

  [[nodiscard]] double dur_ms() const { return to_millis(end - start); }
};

struct FrameTimeline {
  std::uint32_t trace_id = 0;
  std::uint32_t client = 0;
  std::uint64_t frame = 0;
  SimTime capture_ts = 0;  // first event of the frame
  SimTime last_ts = 0;     // last event (verdict time)
  // "result", a terminal drop name ("drop_stale", "pkt_loss",
  // "frame_unrecoverable", ...), or "incomplete" when it has neither.
  std::string verdict = "incomplete";
  // Why tail retention kept this trace (kNone when the frame was
  // head-sampled straight into the durable ring).
  telemetry::RetainReason retain_reason = telemetry::RetainReason::kNone;
  std::vector<TimelineHop> hops;  // sorted by start time

  [[nodiscard]] double span_ms() const { return to_millis(last_ts - capture_ts); }
  [[nodiscard]] bool complete() const { return verdict != "incomplete"; }
};

// One traced frame's events, in record order (pointers into a TraceLog).
struct FrameEvents {
  std::uint32_t trace_id = 0;
  std::vector<const telemetry::TraceEvent*> events;  // never empty
};

// Every traced frame of the log, in first-seen order.
[[nodiscard]] std::vector<FrameEvents> group_by_trace(const TraceLog& log);

// Rebuild the timeline of one traced frame of `log`.
[[nodiscard]] FrameTimeline reconstruct_frame(const TraceLog& log, const FrameEvents& frame);
// Same, looked up by id. nullopt when the log holds no events for
// `trace_id`.
[[nodiscard]] std::optional<FrameTimeline> reconstruct_frame(const TraceLog& log,
                                                             std::uint32_t trace_id);

// Annotated text timeline plus a per-hop budget table.
[[nodiscard]] std::string render_timeline(const FrameTimeline& tl);

// Trace ids ranked by capture-to-verdict span, widest first (ids whose
// frames never produced any event are absent by construction).
[[nodiscard]] std::vector<std::uint32_t> worst_trace_ids(const TraceLog& log,
                                                         std::size_t n);
// Trace ids whose timeline holds a terminal drop instant, in first-seen
// order.
[[nodiscard]] std::vector<std::uint32_t> dropped_trace_ids(const TraceLog& log);

}  // namespace mar::expt
