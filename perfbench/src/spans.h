// The benchmark's own span recorder, used only by the traced run.
//
// Each span wraps one call the benchmark makes into a layer's public
// API (vision stage calls, serialize/parse, FrameChannel send/poll,
// EpollLoop handlers, Experiment build/run/result, CapacityEngine
// run/plan_machines). A span holds its name, wall-clock start and end
// (steady_clock), the span that encloses it on the same thread, and
// the id of the frame or job it served. Spans stay in per-thread
// in-memory buffers while the run lasts and are written out once it
// ends. The first dot-separated part of a name is its layer
// ("vision.extract" -> "vision"), which the self-time table groups by.
//
// When recording is off a Scope costs one relaxed atomic load.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace pb::spans {

struct Span {
  const char* name = "";  // static-lifetime string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the collected vector; -1 = root
  std::uint32_t thread = 0;
  std::uint64_t id = 0;      // frame or job the span served
  std::uint64_t value = 0;   // bytes moved, features found, ...
};

void set_enabled(bool on);
[[nodiscard]] bool enabled();

[[nodiscard]] std::int64_t now_ns();

// Records a span from construction to destruction when enabled.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t id = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_value(std::uint64_t v);

 private:
  std::int32_t index_ = -1;  // slot in this thread's buffer
};

// Every recorded span, merged over threads; parent indices refer to the
// returned vector. Call only when no other thread is recording.
[[nodiscard]] std::vector<Span> collect();
// Forget every recorded span (same precondition as collect()).
void reset();

// --- analysis --------------------------------------------------------
[[nodiscard]] std::vector<double> durations_ms(const std::vector<Span>& spans,
                                               std::string_view name);
[[nodiscard]] double total_ms(const std::vector<Span>& spans, std::string_view name);
[[nodiscard]] std::uint64_t total_value(const std::vector<Span>& spans, std::string_view name);

// Self time (duration minus the part covered by direct children) per
// layer and per span name, with call counts and the share of `wall_ms`.
void print_self_time_table(const std::vector<Span>& spans, double wall_ms, std::FILE* out);

// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
bool write_chrome_trace(const std::vector<Span>& spans, const std::string& path);

}  // namespace pb::spans
