#include "telemetry/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <string_view>

namespace mar::telemetry {
namespace {

// Paired interval awaiting attribution. `priority` is the PathComponent
// value: lower wins (see the enum ordering in the header).
struct Interval {
  SimTime start = 0;
  SimTime end = 0;
  PathComponent component = PathComponent::kGap;
  Stage stage = Stage::kPrimary;
};

// Component of a span name, or kGap for names that carry no envelope
// time claim (instants, counters, fault-plane bookkeeping).
PathComponent component_of(std::string_view name) {
  if (name == spans::kStateFetch) return PathComponent::kStateFetch;
  if (name == spans::kRtxStall) return PathComponent::kRtxStall;
  if (name == spans::kRpcHandoff) return PathComponent::kRpc;
  if (name == spans::kSidecarQueue) return PathComponent::kQueue;
  if (name == spans::kSocketBuffer) return PathComponent::kSocketBuffer;
  if (name == spans::kService) return PathComponent::kService;
  return PathComponent::kGap;  // kLink is classified separately
}

// Spans that claim envelope time: the prioritised components plus link
// transits (frame_e2e is the envelope itself).
bool is_path_span(std::string_view name) {
  return component_of(name) != PathComponent::kGap || name == spans::kLink;
}

}  // namespace

const char* to_string(PathComponent c) {
  switch (c) {
    case PathComponent::kStateFetch:
      return "state_fetch";
    case PathComponent::kRtxStall:
      return "rtx_stall";
    case PathComponent::kRpc:
      return "rpc";
    case PathComponent::kQueue:
      return "queue";
    case PathComponent::kSocketBuffer:
      return "socket_buffer";
    case PathComponent::kService:
      return "service";
    case PathComponent::kUpload:
      return "upload";
    case PathComponent::kNetwork:
      return "network";
    case PathComponent::kDownload:
      return "download";
    case PathComponent::kGap:
      return "gap";
  }
  return "?";
}

CriticalPath extract_critical_path(std::vector<const TraceEvent*> events) {
  CriticalPath cp;
  if (events.empty()) return cp;

  // Chronological order; ties keep record order (the ring is causal).
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent* a, const TraceEvent* b) { return a->ts < b->ts; });

  // Envelope + identity + verdict.
  SimTime first_ts = events.front()->ts;
  SimTime last_ts = events.front()->ts;
  SimTime e2e_begin = -1;
  SimTime e2e_end = -1;
  for (const TraceEvent* ev : events) {
    const TraceEvent& e = *ev;
    if (e.phase == TracePhase::kCounter) continue;
    first_ts = std::min(first_ts, e.ts);
    last_ts = std::max(last_ts, e.end_ts());
    if (cp.trace_id == 0 && e.trace_id != 0) cp.trace_id = e.trace_id;
    if (cp.client == ClientId::kInvalid || cp.client == 0) cp.client = e.client;
    if (cp.frame == FrameId::kInvalid || cp.frame == 0) cp.frame = e.frame;
    const std::string_view name(e.name);
    if (name == spans::kFrameE2e) {
      if (e.phase == TracePhase::kBegin) e2e_begin = e.ts;
      if (e.phase == TracePhase::kEnd) e2e_end = e.ts;
    }
    if (e.phase == TracePhase::kInstant && spans::is_terminal_drop(name)) {
      cp.verdict = std::string(name);
    }
  }
  cp.start = e2e_begin >= 0 ? e2e_begin : first_ts;
  cp.end = e2e_end >= 0 ? e2e_end : last_ts;
  if (e2e_end >= 0) {
    cp.delivered = true;
    cp.verdict = "result";
  }
  if (cp.end < cp.start) cp.end = cp.start;

  // Pair begin/end in chronological order; collect path intervals.
  SpanPairing pairing;
  for (const TraceEvent* ev : events) pairing.add(*ev);
  std::vector<Interval> intervals;
  std::vector<Interval> links;  // classified upload/network/download below
  for (const PairedSpan& s : pairing.spans()) {
    const TraceEvent& e = *s.event;
    const std::string_view name(e.name);
    if (e.phase == TracePhase::kInstant || !is_path_span(name)) continue;
    if (s.orphan_end()) {
      // An end whose begin lives on another track — the failover
      // respawn finishing a dead replica's span. No interval.
      ++cp.orphan_ends;
      continue;
    }
    const Interval iv{s.start(), s.end(), component_of(name), e.stage};
    if (e.phase == TracePhase::kComplete && name == spans::kLink) {
      links.push_back(iv);
    } else {
      intervals.push_back(iv);
    }
  }
  // Begins that never closed: the replica died or the run was clipped
  // mid-flight. The wait was real up to the frame's last event.
  for (const TraceEvent* b : pairing.unclosed()) {
    const std::string_view name(b->name);
    if (!is_path_span(name)) continue;
    ++cp.open_spans;
    intervals.push_back(Interval{b->ts, std::max(cp.end, b->ts), component_of(name), b->stage});
  }

  // Classify link hops: first transit is the client upload; the final
  // transit of a delivered frame carries the result back down.
  if (!links.empty()) {
    std::stable_sort(links.begin(), links.end(),
                     [](const Interval& a, const Interval& b) { return a.start < b.start; });
    for (std::size_t i = 0; i < links.size(); ++i) {
      Interval iv = links[i];
      if (i == 0) {
        iv.component = PathComponent::kUpload;
      } else if (cp.delivered && i + 1 == links.size()) {
        iv.component = PathComponent::kDownload;
      } else {
        iv.component = PathComponent::kNetwork;
      }
      intervals.push_back(iv);
    }
  }

  // Attribute each elementary slice of the envelope to the covering
  // interval with the strongest claim (lowest PathComponent value).
  std::vector<SimTime> cuts;
  cuts.reserve(intervals.size() * 2 + 2);
  cuts.push_back(cp.start);
  cuts.push_back(cp.end);
  for (const Interval& iv : intervals) {
    if (iv.end <= cp.start || iv.start >= cp.end) continue;
    cuts.push_back(std::clamp(iv.start, cp.start, cp.end));
    cuts.push_back(std::clamp(iv.end, cp.start, cp.end));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const SimTime lo = cuts[i];
    const SimTime hi = cuts[i + 1];
    if (hi <= lo) continue;
    PathComponent winner = PathComponent::kGap;
    Stage win_stage = Stage::kPrimary;
    for (const Interval& iv : intervals) {
      if (iv.start <= lo && iv.end >= hi &&
          static_cast<int>(iv.component) < static_cast<int>(winner)) {
        winner = iv.component;
        win_stage = iv.stage;
      }
    }
    const double ms = to_millis(hi - lo);
    cp.blame_ms[static_cast<std::size_t>(winner)] += ms;
    if (winner == PathComponent::kQueue || winner == PathComponent::kSocketBuffer) {
      cp.stage_queue_ms[static_cast<std::size_t>(win_stage)] += ms;
    } else if (winner == PathComponent::kService) {
      cp.stage_service_ms[static_cast<std::size_t>(win_stage)] += ms;
    }
    if (!cp.segments.empty() && cp.segments.back().component == winner &&
        cp.segments.back().stage == win_stage && cp.segments.back().end == lo) {
      cp.segments.back().end = hi;
    } else {
      cp.segments.push_back(PathSegment{lo, hi, winner, win_stage});
    }
  }
  return cp;
}

std::string render_critical_path(const CriticalPath& cp) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "critical path trace#%u client %u frame %llu: %.3f ms (%s)\n",
                cp.trace_id, cp.client, static_cast<unsigned long long>(cp.frame),
                cp.total_ms(), cp.verdict.c_str());
  out += buf;
  for (const PathSegment& seg : cp.segments) {
    std::snprintf(buf, sizeof(buf), "  %10.3f .. %10.3f ms  %-13s %-9s %8.3f ms\n",
                  to_millis(seg.start - cp.start), to_millis(seg.end - cp.start),
                  to_string(seg.component),
                  seg.component == PathComponent::kQueue ||
                          seg.component == PathComponent::kSocketBuffer ||
                          seg.component == PathComponent::kService
                      ? to_string(seg.stage)
                      : "-",
                  seg.dur_ms());
    out += buf;
  }
  out += "blame:";
  const double total = cp.total_ms();
  for (int c = 0; c < kNumPathComponents; ++c) {
    const double ms = cp.blame_ms[static_cast<std::size_t>(c)];
    if (ms <= 0.0) continue;
    std::snprintf(buf, sizeof(buf), " %s %.3f ms (%.1f%%)",
                  to_string(static_cast<PathComponent>(c)), ms,
                  total > 0 ? 100.0 * ms / total : 0.0);
    out += buf;
  }
  out += "\nper-stage queue vs service self-time:\n";
  for (int s = 0; s < kNumStages; ++s) {
    const double q = cp.stage_queue_ms[static_cast<std::size_t>(s)];
    const double sv = cp.stage_service_ms[static_cast<std::size_t>(s)];
    if (q <= 0.0 && sv <= 0.0) continue;
    std::snprintf(buf, sizeof(buf), "  %-9s queue %8.3f ms  service %8.3f ms\n",
                  to_string(static_cast<Stage>(s)), q, sv);
    out += buf;
  }
  if (cp.open_spans || cp.orphan_ends) {
    std::snprintf(buf, sizeof(buf), "malformed spans: %d open (clamped), %d orphan ends\n",
                  cp.open_spans, cp.orphan_ends);
    out += buf;
  }
  return out;
}

}  // namespace mar::telemetry
