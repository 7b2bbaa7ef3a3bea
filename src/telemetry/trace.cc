#include "telemetry/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <sstream>

#include "common/parallel.h"
#include "telemetry/flight_recorder.h"

namespace mar::telemetry {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fmt_us(SimTime ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1000.0);
  return buf;
}

std::string fmt_val(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_enabled(bool on) {
  if (on && events_.empty()) reserve(kDefaultCapacity);
  enabled_.store(on, std::memory_order_relaxed);
}

void Tracer::reserve(std::size_t capacity) {
  events_.assign(capacity, TraceEvent{});
  next_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

void Tracer::clear() {
  next_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

void Tracer::record(std::uint32_t track, const char* name, SimTime ts, SimDuration dur,
                    ClientId client, FrameId frame, Stage stage, TracePhase phase,
                    double value, std::uint32_t trace_id) {
  if (!enabled()) return;
  TraceEvent e;
  e.ts = ts;
  e.dur = dur;
  e.value = value;
  e.name = name;
  e.frame = frame.value();
  e.client = client.value();
  e.track = track;
  e.trace_id = trace_id;
  e.stage = stage;
  e.phase = phase;
  e.lane = static_cast<std::uint16_t>(parallel_lane());

  // Tail retention: flight-recorded frames buffer their events until
  // the completion-point verdict instead of going durable immediately.
  if (trace_id != 0 && flight_recording_enabled() &&
      FlightRecorder::instance().try_record(e)) {
    return;
  }

  const std::uint64_t idx = next_.fetch_add(1, std::memory_order_relaxed);
  if (idx >= events_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_[idx] = e;
}

std::size_t Tracer::append(const TraceEvent* events, std::size_t n) {
  if (!enabled() || n == 0) return 0;
  const std::uint64_t start = next_.fetch_add(n, std::memory_order_relaxed);
  if (start >= events_.size()) {
    dropped_.fetch_add(n, std::memory_order_relaxed);
    return 0;
  }
  const std::size_t fit =
      std::min<std::size_t>(n, events_.size() - static_cast<std::size_t>(start));
  std::copy(events, events + fit, events_.begin() + static_cast<std::ptrdiff_t>(start));
  if (fit < n) dropped_.fetch_add(n - fit, std::memory_order_relaxed);
  return fit;
}

void Tracer::set_track_name(std::uint32_t track, std::string name) {
  std::lock_guard<std::mutex> lk(meta_mu_);
  track_names_[track] = std::move(name);
}

std::string Tracer::track_name(std::uint32_t track) const {
  std::lock_guard<std::mutex> lk(meta_mu_);
  auto it = track_names_.find(track);
  return it == track_names_.end() ? "track#" + std::to_string(track) : it->second;
}

std::unordered_map<std::uint32_t, std::string> Tracer::track_names() const {
  std::lock_guard<std::mutex> lk(meta_mu_);
  return track_names_;
}

std::size_t Tracer::size() const {
  return std::min<std::uint64_t>(next_.load(std::memory_order_relaxed), events_.size());
}

std::vector<TraceEvent> Tracer::snapshot() const {
  return {events_.begin(), events_.begin() + static_cast<std::ptrdiff_t>(size())};
}

void SpanPairing::add(const TraceEvent& e) {
  switch (e.phase) {
    case TracePhase::kBegin:
      open_[Key{e.track, e.name, e.client, e.frame, static_cast<std::uint8_t>(e.stage)}]
          .push_back(&e);
      break;
    case TracePhase::kEnd: {
      auto it = open_.find(
          Key{e.track, e.name, e.client, e.frame, static_cast<std::uint8_t>(e.stage)});
      if (it == open_.end()) {
        spans_.push_back(PairedSpan{nullptr, &e});  // orphan end
        break;
      }
      spans_.push_back(PairedSpan{it->second.back(), &e});
      it->second.pop_back();
      if (it->second.empty()) open_.erase(it);
      break;
    }
    case TracePhase::kComplete:
    case TracePhase::kInstant:
      spans_.push_back(PairedSpan{nullptr, &e});
      break;
    case TracePhase::kCounter:
      break;
  }
}

std::vector<const TraceEvent*> SpanPairing::unclosed() const {
  std::vector<const TraceEvent*> out;
  for (const auto& [key, stack] : open_) out.insert(out.end(), stack.begin(), stack.end());
  return out;
}

namespace {

// The ring's spans named `name` (the other names never pair with them).
SpanPairing pair_named(const std::vector<TraceEvent>& events, std::size_t n,
                       const char* name) {
  SpanPairing pairing;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::strcmp(events[i].name, name) == 0) pairing.add(events[i]);
  }
  return pairing;
}

}  // namespace

std::vector<TrackSpanStats> Tracer::replica_spans(const char* name,
                                                  SimTime min_end_ts) const {
  std::map<std::uint32_t, TrackSpanStats> per_track;
  const SpanPairing pairing = pair_named(events_, size(), name);
  for (const PairedSpan& s : pairing.spans()) {
    if (!s.timed() || s.end() < min_end_ts) continue;
    TrackSpanStats& t = per_track[s.event->track];
    t.track = s.event->track;
    t.stage = s.event->stage;
    t.ms.add(to_millis(s.end() - s.start()));
  }
  std::vector<TrackSpanStats> out;
  out.reserve(per_track.size());
  for (auto& [_, stats] : per_track) out.push_back(std::move(stats));
  return out;
}

std::array<Accumulator, kNumStages> Tracer::stage_spans(const char* name,
                                                        SimTime min_end_ts) const {
  std::array<Accumulator, kNumStages> out;
  const SpanPairing pairing = pair_named(events_, size(), name);
  for (const PairedSpan& s : pairing.spans()) {
    const auto stage_idx = static_cast<std::size_t>(s.event->stage);
    if (s.timed() && stage_idx < kNumStages && s.end() >= min_end_ts) {
      out[stage_idx].add(to_millis(s.end() - s.start()));
    }
  }
  return out;
}

std::string Tracer::chrome_trace_json() const {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&]() -> std::ostringstream& {
    if (!first) out << ",\n";
    first = false;
    return out;
  };

  // Track ("process") names so Perfetto labels each replica's lane.
  {
    std::lock_guard<std::mutex> lk(meta_mu_);
    for (const auto& [track, name] : track_names_) {
      sep() << "{\"ph\":\"M\",\"pid\":" << track << ",\"tid\":0,\"name\":\"process_name\","
            << "\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
    }
  }

  // Trace ids link spans back to retained flight-recorder timelines;
  // omitted when zero so untraced events keep their old shape.
  auto trace_arg = [](std::uint32_t id) {
    return id ? ",\"trace\":" + std::to_string(id) : std::string();
  };

  // Paired spans come out in record order of the event that produced
  // them; counters, which the pairing skips, are merged back in place.
  const std::size_t n = size();
  const SpanPairing pairing(events_.data(), n);
  const std::vector<PairedSpan>& paired = pairing.spans();
  std::size_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& e = events_[i];
    if (e.phase == TracePhase::kCounter) {
      sep() << "{\"ph\":\"C\",\"pid\":" << e.track << ",\"ts\":" << fmt_us(e.ts)
            << ",\"name\":\"" << e.name << "\",\"args\":{\"value\":" << fmt_val(e.value)
            << "}}";
      continue;
    }
    if (next == paired.size() || paired[next].event != &e) continue;  // a begin
    const PairedSpan& s = paired[next++];
    if (s.orphan_end()) continue;  // its begin was clipped
    const TraceEvent& b = s.begin != nullptr ? *s.begin : e;
    const char* stage_name = to_string(e.stage);
    if (e.phase == TracePhase::kInstant) {
      sep() << "{\"ph\":\"i\",\"pid\":" << e.track << ",\"tid\":" << e.lane
            << ",\"ts\":" << fmt_us(e.ts) << ",\"name\":\"" << e.name
            << "\",\"cat\":\"" << stage_name << "\",\"s\":\"p\",\"args\":{\"client\":"
            << e.client << ",\"frame\":" << e.frame << trace_arg(e.trace_id) << "}}";
      continue;
    }
    sep() << "{\"ph\":\"X\",\"pid\":" << b.track << ",\"tid\":" << b.lane
          << ",\"ts\":" << fmt_us(b.ts) << ",\"dur\":" << fmt_us(s.end() - s.start())
          << ",\"name\":\"" << b.name << "\",\"cat\":\"" << stage_name
          << "\",\"args\":{\"client\":" << b.client << ",\"frame\":" << b.frame
          << trace_arg(b.trace_id) << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return out.str();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  const std::string body = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

std::string Tracer::prometheus_text() const {
  std::ostringstream out;
  out << "# HELP mar_trace_events_total Events recorded by the tracer.\n"
      << "# TYPE mar_trace_events_total counter\n"
      << "mar_trace_events_total " << size() << "\n"
      << "# HELP mar_trace_events_dropped_total Events lost to a full trace buffer.\n"
      << "# TYPE mar_trace_events_dropped_total counter\n"
      << "mar_trace_events_dropped_total " << dropped() << "\n";

  static constexpr const char* kSpanNames[] = {
      spans::kService, spans::kSidecarQueue, spans::kSocketBuffer, spans::kRpcHandoff,
      spans::kStateFetch, spans::kLink, spans::kFrameE2e,
  };
  out << "# HELP mar_trace_span_ms Mean latency of matched trace spans.\n"
      << "# TYPE mar_trace_span_ms gauge\n"
      << "# HELP mar_trace_span_count Number of matched trace spans.\n"
      << "# TYPE mar_trace_span_count gauge\n";
  constexpr std::size_t kNumSpanNames = std::size(kSpanNames);
  std::array<std::array<Accumulator, kNumStages>, kNumSpanNames> per_name;
  const std::size_t n = size();
  const SpanPairing pairing(events_.data(), n);
  for (const PairedSpan& s : pairing.spans()) {
    const auto stage_idx = static_cast<std::size_t>(s.event->stage);
    if (!s.timed() || stage_idx >= kNumStages) continue;
    for (std::size_t k = 0; k < kNumSpanNames; ++k) {
      if (std::strcmp(s.event->name, kSpanNames[k]) != 0) continue;
      per_name[k][stage_idx].add(to_millis(s.end() - s.start()));
      break;
    }
  }
  for (std::size_t k = 0; k < kNumSpanNames; ++k) {
    const char* name = kSpanNames[k];
    const auto& per_stage = per_name[k];
    for (std::size_t s = 0; s < kNumStages; ++s) {
      if (per_stage[s].count() == 0) continue;
      const char* stage = to_string(static_cast<Stage>(s));
      out << "mar_trace_span_ms{span=\"" << name << "\",stage=\"" << stage << "\"} "
          << fmt_val(per_stage[s].mean()) << "\n";
      out << "mar_trace_span_count{span=\"" << name << "\",stage=\"" << stage << "\"} "
          << per_stage[s].count() << "\n";
    }
  }

  // Instant-event tallies (drops, losses, timeouts) by stage.
  std::map<std::pair<std::string, std::uint8_t>, std::uint64_t> instants;
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& e = events_[i];
    if (e.phase != TracePhase::kInstant) continue;
    ++instants[{e.name, static_cast<std::uint8_t>(e.stage)}];
  }
  out << "# HELP mar_trace_instants_total Point events (drops, losses, timeouts).\n"
      << "# TYPE mar_trace_instants_total counter\n";
  for (const auto& [key, count] : instants) {
    out << "mar_trace_instants_total{event=\"" << key.first << "\",stage=\""
        << to_string(static_cast<Stage>(key.second)) << "\"} " << count << "\n";
  }
  return out.str();
}

std::string Tracer::event_log_text() const {
  // One line per event, whitespace-separated, name last (names are
  // static identifiers without spaces; track names may contain spaces
  // and therefore go last on their own lines too).
  std::ostringstream out;
  out << "# mar-trace-events v1\n";
  {
    std::lock_guard<std::mutex> lk(meta_mu_);
    std::map<std::uint32_t, std::string> ordered(track_names_.begin(),
                                                 track_names_.end());
    for (const auto& [track, name] : ordered) {
      out << "track " << track << " " << name << "\n";
    }
  }
  const std::size_t n = size();
  char val[48];
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& e = events_[i];
    std::snprintf(val, sizeof(val), "%.9g", e.value);
    out << "ev " << e.ts << " " << e.dur << " " << val << " "
        << static_cast<unsigned>(e.phase) << " " << static_cast<unsigned>(e.stage) << " "
        << e.track << " " << e.lane << " " << e.client << " " << e.frame << " "
        << e.trace_id << " " << e.name << "\n";
  }
  return out.str();
}

bool Tracer::write_event_log(const std::string& path) const {
  const std::string body = event_log_text();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

SimTime trace_wallclock_now() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace mar::telemetry
