#include "expt/forensics.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace mar::expt {
namespace {

using telemetry::TraceEvent;
using telemetry::TracePhase;

std::string fmt_ms(double ms) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

}  // namespace

TraceLog from_tracer(const telemetry::Tracer& tracer) {
  TraceLog log;
  log.events = tracer.snapshot();
  log.track_names = tracer.track_names();
  return log;
}

std::optional<TraceLog> parse_trace_log(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line.rfind("# mar-trace-events v1", 0) != 0) {
    return std::nullopt;
  }
  TraceLog log;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "track") {
      std::uint32_t track = 0;
      ls >> track;
      std::string name;
      std::getline(ls, name);
      if (!name.empty() && name.front() == ' ') name.erase(0, 1);
      log.track_names[track] = name;
      continue;
    }
    if (tag != "ev") continue;
    TraceEvent e;
    unsigned phase = 0, stage = 0;
    std::string name;
    if (!(ls >> e.ts >> e.dur >> e.value >> phase >> stage >> e.track >> e.lane >>
          e.client >> e.frame >> e.trace_id >> name)) {
      continue;  // malformed line
    }
    e.phase = static_cast<TracePhase>(phase);
    e.stage = static_cast<Stage>(stage);
    log.name_storage.push_back(std::move(name));
    e.name = log.name_storage.back().c_str();
    log.events.push_back(e);
  }
  return log;
}

std::optional<TraceLog> load_trace_log(const std::string& path) {
  std::ifstream f(path);
  if (!f) return std::nullopt;
  std::ostringstream body;
  body << f.rdbuf();
  return parse_trace_log(body.str());
}

std::vector<FrameEvents> group_by_trace(const TraceLog& log) {
  std::vector<FrameEvents> out;
  std::unordered_map<std::uint32_t, std::size_t> index;
  for (const TraceEvent& e : log.events) {
    if (e.trace_id == 0) continue;
    auto [it, inserted] = index.try_emplace(e.trace_id, out.size());
    if (inserted) out.push_back(FrameEvents{e.trace_id, {}});
    out[it->second].events.push_back(&e);
  }
  return out;
}

FrameTimeline reconstruct_frame(const TraceLog& log, const FrameEvents& frame) {
  FrameTimeline tl;
  tl.trace_id = frame.trace_id;
  tl.capture_ts = frame.events.front()->ts;
  tl.client = frame.events.front()->client;
  tl.frame = frame.events.front()->frame;

  telemetry::SpanPairing pairing;
  for (const TraceEvent* e : frame.events) {
    tl.last_ts = std::max(tl.last_ts, e->end_ts());
    pairing.add(*e);
  }

  for (const telemetry::PairedSpan& s : pairing.spans()) {
    const TraceEvent& e = *s.event;
    if (e.phase == TracePhase::kInstant) {
      if (std::strcmp(e.name, telemetry::spans::kRetained) == 0) {
        tl.retain_reason = static_cast<telemetry::RetainReason>(static_cast<int>(e.value));
        continue;  // synthetic marker, not a hop
      }
      if (telemetry::spans::is_terminal_drop(e.name)) tl.verdict = e.name;
    } else if (e.phase == TracePhase::kEnd &&
               std::strcmp(e.name, telemetry::spans::kFrameE2e) == 0) {
      tl.verdict = "result";
    }
    // An orphan end (clipped begin) becomes a zero-length marker.
    const double value = s.begin != nullptr ? s.begin->value : s.orphan_end() ? 0.0 : e.value;
    tl.hops.push_back(TimelineHop{s.start(), s.end(), log.track_label(e.track), e.name,
                                  e.stage, e.phase, value});
  }

  // Spans still open at the end of the log (the frame died mid-hop, or
  // the run ended): surface them as open hops so the timeline shows
  // where the frame was stuck.
  for (const TraceEvent* b : pairing.unclosed()) {
    tl.hops.push_back(TimelineHop{b->ts, b->ts, log.track_label(b->track), b->name, b->stage,
                                  TracePhase::kBegin, b->value, /*open=*/true});
  }

  std::stable_sort(tl.hops.begin(), tl.hops.end(),
                   [](const TimelineHop& a, const TimelineHop& b) {
                     return a.start < b.start;
                   });
  return tl;
}

std::optional<FrameTimeline> reconstruct_frame(const TraceLog& log,
                                               std::uint32_t trace_id) {
  if (trace_id == 0) return std::nullopt;
  FrameEvents frame{trace_id, {}};
  for (const TraceEvent& e : log.events) {
    if (e.trace_id == trace_id) frame.events.push_back(&e);
  }
  if (frame.events.empty()) return std::nullopt;
  return reconstruct_frame(log, frame);
}

std::string render_timeline(const FrameTimeline& tl) {
  std::ostringstream out;
  out << "== trace " << tl.trace_id << " · client " << tl.client << " frame "
      << tl.frame << " · verdict " << tl.verdict;
  if (tl.retain_reason != telemetry::RetainReason::kNone) {
    out << " · retained: " << telemetry::to_string(tl.retain_reason);
  }
  out << " ==\n";
  out << "capture at " << fmt_ms(to_millis(tl.capture_ts)) << " ms, verdict at +"
      << fmt_ms(tl.span_ms()) << " ms\n\ntimeline:\n";

  for (const TimelineHop& hop : tl.hops) {
    out << "  +" << fmt_ms(to_millis(hop.start - tl.capture_ts)) << " ms  ";
    char line[160];
    if (hop.phase == TracePhase::kInstant) {
      std::snprintf(line, sizeof(line), "%-22s %-14s [instant, stage=%s]",
                    hop.name.c_str(), hop.track.c_str(), to_string(hop.stage));
    } else if (hop.open) {
      std::snprintf(line, sizeof(line), "%-22s %-14s [still open, stage=%s]",
                    hop.name.c_str(), hop.track.c_str(), to_string(hop.stage));
    } else {
      std::snprintf(line, sizeof(line), "%-22s %-14s %8s ms  [stage=%s]",
                    hop.name.c_str(), hop.track.c_str(), fmt_ms(hop.dur_ms()).c_str(),
                    to_string(hop.stage));
    }
    out << line << "\n";
  }

  // Per-hop budget: how the capture→verdict span divides over hops with
  // real durations (instants and the e2e envelope itself excluded).
  const double span = tl.span_ms();
  out << "\nper-hop budget (of " << fmt_ms(span) << " ms capture->verdict):\n";
  char header[120];
  std::snprintf(header, sizeof(header), "  %-22s %-14s %10s %8s\n", "hop", "track",
                "dur_ms", "% e2e");
  out << header;
  double accounted = 0.0;
  for (const TimelineHop& hop : tl.hops) {
    if (hop.phase == TracePhase::kInstant || hop.open) continue;
    if (hop.name == telemetry::spans::kFrameE2e) continue;
    const double ms = hop.dur_ms();
    accounted += ms;
    char row[120];
    std::snprintf(row, sizeof(row), "  %-22s %-14s %10s %8.1f\n", hop.name.c_str(),
                  hop.track.c_str(), fmt_ms(ms).c_str(),
                  span > 0.0 ? 100.0 * ms / span : 0.0);
    out << row;
  }
  char total[120];
  std::snprintf(total, sizeof(total), "  %-22s %-14s %10s %8.1f\n", "(accounted)", "",
                fmt_ms(accounted).c_str(), span > 0.0 ? 100.0 * accounted / span : 0.0);
  out << total;
  return out.str();
}

std::vector<std::uint32_t> worst_trace_ids(const TraceLog& log, std::size_t n) {
  // Capture-to-verdict span per frame.
  std::vector<std::pair<std::uint32_t, SimTime>> spans;
  for (const FrameEvents& frame : group_by_trace(log)) {
    SimTime last = frame.events.front()->ts;
    for (const TraceEvent* e : frame.events) last = std::max(last, e->end_ts());
    spans.emplace_back(frame.trace_id, last - frame.events.front()->ts);
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < std::min(n, spans.size()); ++i) out.push_back(spans[i].first);
  return out;
}

std::vector<std::uint32_t> dropped_trace_ids(const TraceLog& log) {
  std::vector<std::uint32_t> out;
  for (const FrameEvents& frame : group_by_trace(log)) {
    if (std::any_of(frame.events.begin(), frame.events.end(), [](const TraceEvent* e) {
          return e->phase == TracePhase::kInstant && telemetry::spans::is_terminal_drop(e->name);
        })) {
      out.push_back(frame.trace_id);
    }
  }
  return out;
}

}  // namespace mar::expt
