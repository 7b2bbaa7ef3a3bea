#include "expt/attribution.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <utility>

#include "expt/table.h"
#include "telemetry/registry.h"

namespace mar::expt {
namespace {

using telemetry::CriticalPath;
using telemetry::kNumPathComponents;
using telemetry::PathComponent;

// Band layout over the delivered population, ranked fastest-first.
struct BandSpec {
  const char* label;
  double lo;
  double hi;
};
constexpr BandSpec kBands[] = {
    {"p50", 0.0, 0.50},
    {"p90", 0.50, 0.90},
    {"p99", 0.90, 0.99},
    {"p100", 0.99, 1.0},
};

void append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

}  // namespace

BlameReport build_blame_report(const TraceLog& log) {
  BlameReport r;

  // Frames in first-seen order, each in record order (the extractor
  // breaks ts ties by input order).
  std::vector<CriticalPath> delivered;
  for (FrameEvents& frame : group_by_trace(log)) {
    CriticalPath cp = telemetry::extract_critical_path(std::move(frame.events));
    ++r.frames_total;
    r.open_spans += cp.open_spans;
    r.orphan_ends += cp.orphan_ends;
    if (cp.delivered) {
      ++r.frames_delivered;
      delivered.push_back(std::move(cp));
    } else if (cp.verdict == "incomplete") {
      ++r.frames_incomplete;
    } else {
      ++r.frames_dropped;
    }
  }
  if (delivered.empty()) return r;

  std::sort(delivered.begin(), delivered.end(),
            [](const CriticalPath& a, const CriticalPath& b) {
              return a.total_ms() != b.total_ms() ? a.total_ms() < b.total_ms()
                                                  : a.trace_id < b.trace_id;
            });
  const std::size_t n = delivered.size();
  const std::size_t p99_rank = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(n) - 1.0, std::ceil(0.99 * static_cast<double>(n)) - 1.0));
  r.e2e_p99_ms = delivered[std::max<std::size_t>(p99_rank, 0)].total_ms();

  for (const CriticalPath& cp : delivered) {
    for (int c = 0; c < kNumPathComponents; ++c) {
      r.overall_mean_ms[static_cast<std::size_t>(c)] +=
          cp.blame_ms[static_cast<std::size_t>(c)] / static_cast<double>(n);
    }
  }

  for (const BandSpec& spec : kBands) {
    const auto lo = static_cast<std::size_t>(spec.lo * static_cast<double>(n));
    auto hi = static_cast<std::size_t>(spec.hi * static_cast<double>(n));
    if (spec.hi >= 1.0) hi = n;
    if (hi <= lo) continue;
    BlameBand band;
    band.label = spec.label;
    band.lo = spec.lo;
    band.hi = spec.hi;
    band.frames = static_cast<int>(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      const CriticalPath& cp = delivered[i];
      const double inv = 1.0 / static_cast<double>(band.frames);
      band.mean_total_ms += cp.total_ms() * inv;
      band.max_total_ms = std::max(band.max_total_ms, cp.total_ms());
      for (int c = 0; c < kNumPathComponents; ++c) {
        band.mean_ms[static_cast<std::size_t>(c)] +=
            cp.blame_ms[static_cast<std::size_t>(c)] * inv;
      }
      for (int s = 0; s < kNumStages; ++s) {
        band.queue_ms[static_cast<std::size_t>(s)] +=
            cp.stage_queue_ms[static_cast<std::size_t>(s)] * inv;
        band.service_ms[static_cast<std::size_t>(s)] +=
            cp.stage_service_ms[static_cast<std::size_t>(s)] * inv;
      }
    }
    r.bands.push_back(std::move(band));
  }
  return r;
}

std::string render_blame_table(const BlameReport& r) {
  std::string out;
  append(out,
         "blame report: %d traced frames (%d delivered, %d dropped, %d incomplete), "
         "e2e p99 %.1f ms\n",
         r.frames_total, r.frames_delivered, r.frames_dropped, r.frames_incomplete,
         r.e2e_p99_ms);
  if (r.open_spans || r.orphan_ends) {
    append(out, "malformed spans: %d open (clamped), %d cross-track orphan ends\n",
           r.open_spans, r.orphan_ends);
  }
  if (r.bands.empty()) return out;

  std::vector<std::string> cols{"band", "frames", "total ms"};
  // Only components that appear anywhere get a column.
  std::vector<int> active;
  for (int c = 0; c < kNumPathComponents; ++c) {
    bool any = false;
    for (const BlameBand& b : r.bands) any = any || b.mean_ms[static_cast<std::size_t>(c)] > 0.0;
    if (any) {
      active.push_back(c);
      cols.emplace_back(telemetry::to_string(static_cast<PathComponent>(c)));
    }
  }
  Table t(cols);
  for (const BlameBand& b : r.bands) {
    std::vector<std::string> row{b.label, std::to_string(b.frames),
                                 Table::num(b.mean_total_ms, 2)};
    for (int c : active) row.push_back(Table::num(b.mean_ms[static_cast<std::size_t>(c)], 2));
    t.add_row(std::move(row));
  }
  out += t.to_string();

  out += "per-stage queue vs service self-time (band means, ms):\n";
  for (const BlameBand& b : r.bands) {
    append(out, "  %-5s", b.label.c_str());
    for (int s = 0; s < kNumStages; ++s) {
      const double q = b.queue_ms[static_cast<std::size_t>(s)];
      const double sv = b.service_ms[static_cast<std::size_t>(s)];
      if (q <= 0.0 && sv <= 0.0) continue;
      append(out, "  %s q=%.2f s=%.2f", to_string(static_cast<Stage>(s)), q, sv);
    }
    out += "\n";
  }
  return out;
}

std::string blame_report_json(const BlameReport& r) {
  std::string out = "{\n";
  append(out, "  \"frames_total\": %d,\n", r.frames_total);
  append(out, "  \"frames_delivered\": %d,\n", r.frames_delivered);
  append(out, "  \"frames_dropped\": %d,\n", r.frames_dropped);
  append(out, "  \"frames_incomplete\": %d,\n", r.frames_incomplete);
  append(out, "  \"open_spans\": %d,\n", r.open_spans);
  append(out, "  \"orphan_ends\": %d,\n", r.orphan_ends);
  append(out, "  \"e2e_p99_ms\": %.6g,\n", r.e2e_p99_ms);
  out += "  \"overall_mean_ms\": {";
  bool first = true;
  for (int c = 0; c < kNumPathComponents; ++c) {
    const double v = r.overall_mean_ms[static_cast<std::size_t>(c)];
    if (v <= 0.0) continue;
    append(out, "%s\"%s\": %.6g", first ? "" : ", ",
           telemetry::to_string(static_cast<PathComponent>(c)), v);
    first = false;
  }
  out += "},\n  \"bands\": [\n";
  for (std::size_t i = 0; i < r.bands.size(); ++i) {
    const BlameBand& b = r.bands[i];
    append(out, "    {\"band\": \"%s\", \"frames\": %d, \"mean_total_ms\": %.6g, "
                "\"max_total_ms\": %.6g, \"components\": {",
           b.label.c_str(), b.frames, b.mean_total_ms, b.max_total_ms);
    first = true;
    for (int c = 0; c < kNumPathComponents; ++c) {
      const double v = b.mean_ms[static_cast<std::size_t>(c)];
      if (v <= 0.0) continue;
      append(out, "%s\"%s\": %.6g", first ? "" : ", ",
             telemetry::to_string(static_cast<PathComponent>(c)), v);
      first = false;
    }
    out += "}, \"stages\": {";
    first = true;
    for (int s = 0; s < kNumStages; ++s) {
      const double q = b.queue_ms[static_cast<std::size_t>(s)];
      const double sv = b.service_ms[static_cast<std::size_t>(s)];
      if (q <= 0.0 && sv <= 0.0) continue;
      append(out, "%s\"%s\": {\"queue_ms\": %.6g, \"service_ms\": %.6g}",
             first ? "" : ", ", to_string(static_cast<Stage>(s)), q, sv);
      first = false;
    }
    append(out, "}}%s\n", i + 1 < r.bands.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

void publish_blame_gauges(const BlameReport& r) {
  auto& reg = telemetry::MetricRegistry::instance();
  const char* help = "Critical-path blame: band-mean milliseconds per component";
  for (const BlameBand& b : r.bands) {
    for (int c = 0; c < kNumPathComponents; ++c) {
      const double v = b.mean_ms[static_cast<std::size_t>(c)];
      if (v <= 0.0) continue;
      reg.gauge("mar_blame_ms", help,
                {{"component", telemetry::to_string(static_cast<PathComponent>(c))},
                 {"percentile", b.label}})
          .set(v);
    }
  }
  for (int c = 0; c < kNumPathComponents; ++c) {
    const double v = r.overall_mean_ms[static_cast<std::size_t>(c)];
    if (v <= 0.0) continue;
    reg.gauge("mar_blame_ms", help,
              {{"component", telemetry::to_string(static_cast<PathComponent>(c))},
               {"percentile", "overall"}})
        .set(v);
  }
}

// --- BurnRate ---------------------------------------------------------

BurnRate::BurnRate(BurnRateConfig config) : cfg_(config) {}

void BurnRate::observe(SimTime t, bool violating, double ingress_fps) {
  samples_.push_back(Sample{t, violating, ingress_fps});
  const SimDuration keep = std::max(cfg_.slow_window, cfg_.trend_window);
  while (!samples_.empty() && samples_.front().t < t - keep) samples_.pop_front();
}

double BurnRate::burn(SimTime now, SimDuration window) const {
  int in_window = 0;
  int breached = 0;
  for (const Sample& s : samples_) {
    if (s.t < now - window) continue;
    ++in_window;
    if (s.violating) ++breached;
  }
  if (in_window == 0 || cfg_.budget <= 0.0) return 0.0;
  return (static_cast<double>(breached) / static_cast<double>(in_window)) / cfg_.budget;
}

double BurnRate::ingress_trend_fps_per_s(SimTime now) const {
  // Least-squares slope over the trend window, x in seconds.
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  int n = 0;
  const SimTime lo = now - cfg_.trend_window;
  for (const Sample& s : samples_) {
    if (s.t < lo) continue;
    const double x = to_millis(s.t - lo) / 1000.0;
    sx += x;
    sy += s.ingress_fps;
    sxx += x * x;
    sxy += x * s.ingress_fps;
    ++n;
  }
  if (n < 3) return 0.0;
  const double denom = static_cast<double>(n) * sxx - sx * sx;
  if (denom <= 0.0) return 0.0;
  return (static_cast<double>(n) * sxy - sx * sy) / denom;
}

void BurnRate::publish(SimTime now) const {
  auto& reg = telemetry::MetricRegistry::instance();
  const char* help = "SLO error-budget burn rate (breach fraction / budget) per window";
  reg.gauge("mar_slo_burn_rate", help, {{"window", "fast"}}).set(fast_burn(now));
  reg.gauge("mar_slo_burn_rate", help, {{"window", "slow"}}).set(slow_burn(now));
  reg.gauge("mar_ingress_trend_fps",
            "Least-squares ingress trend over the fit window (fps per second)")
      .set(ingress_trend_fps_per_s(now));
}

}  // namespace mar::expt
