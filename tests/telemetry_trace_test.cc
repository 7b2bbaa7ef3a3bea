// Tests for the per-frame distributed tracer: recording semantics,
// span pairing under the thread pool, the shared span-pairing walk,
// exporter well-formedness, the end-to-end frame flow of a traced
// simulated experiment, and agreement between the trace consumers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "expt/experiment.h"
#include "expt/forensics.h"
#include "telemetry/critical_path.h"
#include "telemetry/trace.h"

namespace mar::telemetry {
namespace {

// Every test owns the process-wide tracer for its duration.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().reserve(1u << 16);
    Tracer::instance().set_enabled(true);
  }
  void TearDown() override { Tracer::instance().set_enabled(false); }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  auto& t = Tracer::instance();
  t.set_enabled(false);
  t.instant(1, spans::kDropBusy, 10, ClientId{0}, FrameId{0}, Stage::kPrimary);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST_F(TraceTest, RecordsAndSnapshotsInOrder) {
  auto& t = Tracer::instance();
  t.begin(7, spans::kService, 100, ClientId{1}, FrameId{2}, Stage::kSift);
  t.end(7, spans::kService, 250, ClientId{1}, FrameId{2}, Stage::kSift);
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, TracePhase::kBegin);
  EXPECT_EQ(events[1].phase, TracePhase::kEnd);
  EXPECT_EQ(events[0].track, 7u);
  EXPECT_EQ(events[0].ts, 100);
  EXPECT_EQ(events[1].ts, 250);
}

TEST_F(TraceTest, RingDropsWhenFullAndCounts) {
  auto& t = Tracer::instance();
  t.reserve(8);
  for (int i = 0; i < 20; ++i) {
    t.instant(1, spans::kDropBusy, i, ClientId{0}, FrameId{0}, Stage::kPrimary);
  }
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.dropped(), 12u);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_EQ(t.capacity(), 8u);
}

TEST_F(TraceTest, SpanPairingAndWindowFilter) {
  auto& t = Tracer::instance();
  // Two spans on one track; only the second ends inside the window.
  t.begin(3, spans::kService, millis(0.0), ClientId{0}, FrameId{0}, Stage::kLsh);
  t.end(3, spans::kService, millis(5.0), ClientId{0}, FrameId{0}, Stage::kLsh);
  t.begin(3, spans::kService, millis(8.0), ClientId{0}, FrameId{1}, Stage::kLsh);
  t.end(3, spans::kService, millis(20.0), ClientId{0}, FrameId{1}, Stage::kLsh);

  const auto all = t.replica_spans(spans::kService);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].track, 3u);
  EXPECT_EQ(all[0].ms.count(), 2u);

  // min_end_ts admits a span that *began* before the window, matching
  // how a histogram reset at window start sees it.
  const auto windowed = t.replica_spans(spans::kService, millis(10.0));
  ASSERT_EQ(windowed.size(), 1u);
  EXPECT_EQ(windowed[0].ms.count(), 1u);
  EXPECT_NEAR(windowed[0].ms.mean(), 12.0, 1e-9);

  const auto by_stage = t.stage_spans(spans::kService);
  EXPECT_EQ(by_stage[static_cast<int>(Stage::kLsh)].count(), 2u);
  EXPECT_EQ(by_stage[static_cast<int>(Stage::kSift)].count(), 0u);
}

TEST_F(TraceTest, CompleteSpansNeedNoPairing) {
  auto& t = Tracer::instance();
  t.complete(9, spans::kLink, millis(1.0), millis(3.0), ClientId{2}, FrameId{7},
             Stage::kEncoding);
  const auto by_stage = t.stage_spans(spans::kLink);
  ASSERT_EQ(by_stage[static_cast<int>(Stage::kEncoding)].count(), 1u);
  EXPECT_NEAR(by_stage[static_cast<int>(Stage::kEncoding)].mean(), 3.0, 1e-9);
}

TEST_F(TraceTest, UnmatchedEndIsIgnored) {
  auto& t = Tracer::instance();
  t.end(4, spans::kService, 100, ClientId{0}, FrameId{0}, Stage::kSift);
  EXPECT_TRUE(t.replica_spans(spans::kService).empty());
}

// Concurrent recording from every pool lane must lose nothing and tag
// each event with the recording lane. (Runs under the tsan label.)
TEST_F(TraceTest, ParallelRecordingIsLossless) {
  auto& t = Tracer::instance();
  constexpr std::int64_t kEvents = 20000;
  const bool pooled = parallel_threads() > 1;
  // The first chunk holds its lane until a pool worker has run a chunk,
  // so some event is recorded off the calling thread however the
  // scheduler wakes the workers. The wait is bounded: a pool that never
  // runs a chunk on a worker fails the lane check below instead of
  // hanging the test.
  std::atomic<bool> worker_ran{false};
  parallel_for(0, kEvents, /*grain=*/64, [&](std::int64_t b, std::int64_t e) {
    if (parallel_lane() > 0) worker_ran.store(true, std::memory_order_release);
    if (b == 0 && pooled) {
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!worker_ran.load(std::memory_order_acquire) &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }
    for (std::int64_t i = b; i < e; ++i) {
      t.instant(1, spans::kDropBusy, i, ClientId{0},
                FrameId{static_cast<std::uint64_t>(i)}, Stage::kPrimary);
    }
  });
  EXPECT_EQ(t.size(), static_cast<std::size_t>(kEvents));
  EXPECT_EQ(t.dropped(), 0u);

  // Every index recorded exactly once.
  std::vector<bool> seen(kEvents, false);
  int max_lane = 0;
  for (const TraceEvent& e : t.snapshot()) {
    ASSERT_LT(e.frame, static_cast<std::uint64_t>(kEvents));
    EXPECT_FALSE(seen[e.frame]);
    seen[e.frame] = true;
    max_lane = std::max<int>(max_lane, e.lane);
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
  if (pooled) {
    EXPECT_GT(max_lane, 0);
  }
}

TEST_F(TraceTest, NextTraceIdIsNonzeroAndUnique) {
  auto& t = Tracer::instance();
  std::set<std::uint32_t> ids;
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t id = t.next_trace_id();
    EXPECT_NE(id, 0u);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 1000u);
}

// ---------------------------------------------------------------------------
// The span-pairing walk

TraceEvent walk_event(TracePhase phase, const char* name, SimTime ts, std::uint64_t frame = 0,
                      std::uint32_t track = 1) {
  TraceEvent e;
  e.phase = phase;
  e.name = name;
  e.ts = ts;
  e.frame = frame;
  e.client = 0;
  e.track = track;
  return e;
}

std::size_t orphan_ends(const SpanPairing& p) {
  return static_cast<std::size_t>(std::count_if(
      p.spans().begin(), p.spans().end(), [](const PairedSpan& s) { return s.orphan_end(); }));
}

TEST(SpanPairing, SameKeyNestedSpansPairLifo) {
  const std::vector<TraceEvent> events = {
      walk_event(TracePhase::kBegin, spans::kService, 10),
      walk_event(TracePhase::kBegin, spans::kService, 20),
      walk_event(TracePhase::kEnd, spans::kService, 30),
      walk_event(TracePhase::kEnd, spans::kService, 50),
  };
  const SpanPairing p(events.data(), events.size());
  ASSERT_EQ(p.spans().size(), 2u);
  // The inner begin closes first.
  EXPECT_EQ(p.spans()[0].begin, &events[1]);
  EXPECT_EQ(p.spans()[0].event, &events[2]);
  EXPECT_EQ(p.spans()[1].begin, &events[0]);
  EXPECT_EQ(p.spans()[1].end() - p.spans()[1].start(), 40);
  EXPECT_TRUE(p.unclosed().empty());
  EXPECT_EQ(orphan_ends(p), 0u);
}

TEST(SpanPairing, InterleavedFramesOnOneTrackStayApart) {
  // Two frames queue on the same sidecar and overlap; each end closes
  // its own frame's begin, not the most recent one.
  const std::vector<TraceEvent> events = {
      walk_event(TracePhase::kBegin, spans::kSidecarQueue, 0, /*frame=*/1),
      walk_event(TracePhase::kBegin, spans::kSidecarQueue, 5, /*frame=*/2),
      walk_event(TracePhase::kEnd, spans::kSidecarQueue, 12, /*frame=*/1),
      walk_event(TracePhase::kEnd, spans::kSidecarQueue, 30, /*frame=*/2),
  };
  const SpanPairing p(events.data(), events.size());
  ASSERT_EQ(p.spans().size(), 2u);
  EXPECT_EQ(p.spans()[0].begin, &events[0]);
  EXPECT_EQ(p.spans()[0].end() - p.spans()[0].start(), 12);
  EXPECT_EQ(p.spans()[1].begin, &events[1]);
  EXPECT_EQ(p.spans()[1].end() - p.spans()[1].start(), 25);
}

TEST(SpanPairing, OrphanEndIsReportedAndMakesNoSpan) {
  const std::vector<TraceEvent> events = {
      walk_event(TracePhase::kBegin, spans::kService, 0, /*frame=*/0, /*track=*/1),
      walk_event(TracePhase::kEnd, spans::kService, 40, /*frame=*/0, /*track=*/2),
  };
  const SpanPairing p(events.data(), events.size());
  EXPECT_EQ(orphan_ends(p), 1u);
  ASSERT_EQ(p.spans().size(), 1u);
  EXPECT_TRUE(p.spans()[0].orphan_end());
  EXPECT_FALSE(p.spans()[0].timed());
  EXPECT_EQ(p.spans()[0].event, &events[1]);
  ASSERT_EQ(p.unclosed().size(), 1u);  // the begin on the other track
}

TEST(SpanPairing, UnclosedBeginIsReportedWithItsTimestamp) {
  const std::vector<TraceEvent> events = {
      walk_event(TracePhase::kBegin, spans::kStateFetch, 70),
      walk_event(TracePhase::kBegin, spans::kService, 10),
      walk_event(TracePhase::kEnd, spans::kService, 20),
  };
  const SpanPairing p(events.data(), events.size());
  const auto open = p.unclosed();
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0], &events[0]);
  EXPECT_EQ(open[0]->ts, 70);
  EXPECT_EQ(orphan_ends(p), 0u);
}

TEST(SpanPairing, CompletePassesThroughWithItsDuration) {
  TraceEvent link = walk_event(TracePhase::kComplete, spans::kLink, 100);
  link.dur = 35;
  const std::vector<TraceEvent> events = {
      link, walk_event(TracePhase::kInstant, spans::kDropBusy, 140)};
  const SpanPairing p(events.data(), events.size());
  ASSERT_EQ(p.spans().size(), 2u);
  EXPECT_EQ(p.spans()[0].begin, nullptr);
  EXPECT_TRUE(p.spans()[0].timed());
  EXPECT_EQ(p.spans()[0].start(), 100);
  EXPECT_EQ(p.spans()[0].end(), 135);
  EXPECT_FALSE(p.spans()[1].timed());  // the instant, in input order
  EXPECT_EQ(p.spans()[1].event, &events[1]);
}

TEST(SpanPairing, CountersAreSkipped) {
  const std::vector<TraceEvent> events = {
      walk_event(TracePhase::kCounter, "queue_len", 5),
      walk_event(TracePhase::kCounter, "queue_len", 9),
  };
  const SpanPairing p(events.data(), events.size());
  EXPECT_TRUE(p.spans().empty());
  EXPECT_TRUE(p.unclosed().empty());
  EXPECT_EQ(orphan_ends(p), 0u);
}

// ---------------------------------------------------------------------------
// Exporters

// Minimal structural JSON check: balanced braces/brackets outside of
// string literals, no trailing comma before a closer.
void ExpectWellFormedJson(const std::string& s) {
  int depth = 0;
  bool in_string = false, escaped = false;
  char last_significant = '\0';
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
        last_significant = '"';
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      continue;
    }
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      EXPECT_NE(last_significant, ',') << "trailing comma before closer";
      --depth;
      ASSERT_GE(depth, 0);
    }
    if (!std::isspace(static_cast<unsigned char>(c))) last_significant = c;
  }
  EXPECT_FALSE(in_string) << "unterminated string";
  EXPECT_EQ(depth, 0) << "unbalanced braces";
}

TEST_F(TraceTest, ChromeTraceExportIsWellFormed) {
  auto& t = Tracer::instance();
  t.set_track_name(5, "sift#5 (edge-1 \"gpu\")");  // name needing escapes
  t.begin(5, spans::kService, millis(1.0), ClientId{0}, FrameId{0}, Stage::kSift);
  t.end(5, spans::kService, millis(2.0), ClientId{0}, FrameId{0}, Stage::kSift);
  t.complete(9000, spans::kLink, millis(0.5), millis(0.2), ClientId{0}, FrameId{0},
             Stage::kSift);
  t.instant(5, spans::kDropStale, millis(3.0), ClientId{0}, FrameId{1}, Stage::kSift);
  t.counter(5, "queue_len", millis(3.0), 4.0);

  const std::string json = t.chrome_trace_json();
  ExpectWellFormedJson(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("\\\"gpu\\\""), std::string::npos);  // escaped quote survived
}

TEST_F(TraceTest, PrometheusTextExport) {
  auto& t = Tracer::instance();
  t.begin(5, spans::kService, millis(1.0), ClientId{0}, FrameId{0}, Stage::kSift);
  t.end(5, spans::kService, millis(4.0), ClientId{0}, FrameId{0}, Stage::kSift);
  t.instant(5, spans::kDropStale, millis(5.0), ClientId{0}, FrameId{1}, Stage::kSift);

  const std::string text = t.prometheus_text();
  EXPECT_NE(text.find("mar_trace_events_total 3"), std::string::npos);
  EXPECT_NE(text.find("mar_trace_span_ms{span=\"service\",stage=\"sift\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("mar_trace_instants_total{event=\"drop_stale\",stage=\"sift\"} 1"),
            std::string::npos);
  // Exposition format: every HELP has a TYPE.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n') > 0, true);
  std::size_t helps = 0, types = 0, pos = 0;
  while ((pos = text.find("# HELP", pos)) != std::string::npos) ++helps, pos += 6;
  pos = 0;
  while ((pos = text.find("# TYPE", pos)) != std::string::npos) ++types, pos += 6;
  EXPECT_EQ(helps, types);
}

// ---------------------------------------------------------------------------
// End-to-end frame flow through a simulated deployment

TEST_F(TraceTest, ScatterFrameFlowProducesOneServiceSpanPerStage) {
  auto& t = Tracer::instance();
  t.reserve(1u << 18);

  expt::ExperimentConfig cfg;
  cfg.mode = core::PipelineMode::kScatter;
  cfg.num_clients = 1;
  cfg.warmup = seconds(1.0);
  cfg.duration = seconds(4.0);
  cfg.seed = 42;
  expt::run_experiment(cfg);

  // Pair events per (client, frame): a frame whose e2e span closed went
  // all the way through the pipeline.
  struct PerFrame {
    bool e2e_begin = false, e2e_end = false;
    int frame_service_spans = 0;  // kService spans carrying kFrameData
    int fetch_begin = 0, fetch_end = 0;
  };
  std::map<std::uint64_t, PerFrame> frames;
  std::map<std::tuple<std::uint32_t, std::uint64_t, int>, int> open_service;
  for (const TraceEvent& e : t.snapshot()) {
    PerFrame& f = frames[e.frame];
    if (std::strcmp(e.name, spans::kFrameE2e) == 0) {
      if (e.phase == TracePhase::kBegin) f.e2e_begin = true;
      if (e.phase == TracePhase::kEnd) f.e2e_end = true;
    } else if (std::strcmp(e.name, spans::kService) == 0) {
      auto key = std::make_tuple(e.track, e.frame, static_cast<int>(e.stage));
      if (e.phase == TracePhase::kBegin) {
        // `value` carries the message kind; 0 == kFrameData.
        open_service[key] = e.value == 0.0 ? 1 : 0;
      } else if (e.phase == TracePhase::kEnd) {
        auto it = open_service.find(key);
        if (it != open_service.end()) {
          f.frame_service_spans += it->second;
          open_service.erase(it);
        }
      }
    } else if (std::strcmp(e.name, spans::kStateFetch) == 0) {
      if (e.phase == TracePhase::kBegin) ++f.fetch_begin;
      if (e.phase == TracePhase::kEnd) ++f.fetch_end;
    }
  }

  int completed = 0;
  for (const auto& [frame, f] : frames) {
    if (!(f.e2e_begin && f.e2e_end)) continue;
    ++completed;
    // One compute span at each of the five services...
    EXPECT_EQ(f.frame_service_spans, kNumStages) << "frame " << frame;
    // ...plus a completed state-fetch round trip (scAtteR fetch loop).
    EXPECT_GE(f.fetch_begin, 1) << "frame " << frame;
    EXPECT_EQ(f.fetch_begin, f.fetch_end) << "frame " << frame;
  }
  EXPECT_GT(completed, 10);  // 4 s at 30 FPS: plenty of delivered frames

  // The trace saw real state-fetch latency on matching.
  const auto fetch = t.stage_spans(spans::kStateFetch);
  EXPECT_GT(fetch[static_cast<int>(Stage::kMatching)].count(), 0u);
  EXPECT_GT(fetch[static_cast<int>(Stage::kMatching)].mean(), 0.0);
}

TEST_F(TraceTest, SidecarFlowRecordsQueueSpans) {
  auto& t = Tracer::instance();
  t.reserve(1u << 18);

  expt::ExperimentConfig cfg;
  cfg.mode = core::PipelineMode::kScatterPP;
  cfg.num_clients = 2;
  cfg.warmup = seconds(1.0);
  cfg.duration = seconds(3.0);
  cfg.seed = 43;
  expt::run_experiment(cfg);

  const auto queue = t.stage_spans(spans::kSidecarQueue);
  std::uint64_t total = 0;
  for (const auto& acc : queue) total += acc.count();
  EXPECT_GT(total, 0u);

  const auto handoff = t.stage_spans(spans::kRpcHandoff);
  std::uint64_t handoffs = 0;
  for (const auto& acc : handoff) handoffs += acc.count();
  EXPECT_GT(handoffs, 0u);
}

TEST_F(TraceTest, SamplingTracesEveryNthFrame) {
  auto& t = Tracer::instance();

  expt::ExperimentConfig cfg;
  cfg.mode = core::PipelineMode::kScatter;
  cfg.num_clients = 1;
  cfg.warmup = seconds(0.5);
  cfg.duration = seconds(2.0);
  cfg.seed = 44;
  cfg.trace_sample_every = 4;
  expt::run_experiment(cfg);

  std::set<std::uint64_t> traced_frames;
  for (const TraceEvent& e : t.snapshot()) {
    if (std::strcmp(e.name, spans::kFrameE2e) == 0 && e.phase == TracePhase::kBegin) {
      traced_frames.insert(e.frame);
    }
  }
  ASSERT_FALSE(traced_frames.empty());
  for (std::uint64_t f : traced_frames) EXPECT_EQ(f % 4, 0u);
}

// ---------------------------------------------------------------------------
// Every consumer reads the same pairing

TEST_F(TraceTest, TraceConsumersAgreeOnEveryFrame) {
  auto& t = Tracer::instance();
  t.reserve(1u << 18);

  expt::ExperimentConfig cfg;
  cfg.mode = core::PipelineMode::kScatter;  // state fetch on every frame
  cfg.num_clients = 2;
  cfg.warmup = seconds(1.0);
  cfg.duration = seconds(3.0);
  cfg.seed = 45;
  (void)expt::run_experiment(cfg);

  const expt::TraceLog log = expt::from_tracer(t);
  const std::vector<expt::FrameEvents> frames = expt::group_by_trace(log);
  ASSERT_GT(frames.size(), 50u);

  using Hop = std::tuple<std::string, SimTime, SimTime>;
  std::array<double, kNumStages> service_ms{};
  int open_spans = 0;
  for (const expt::FrameEvents& frame : frames) {
    SCOPED_TRACE(frame.trace_id);
    SpanPairing walk;
    for (const TraceEvent* e : frame.events) walk.add(*e);

    // Forensics: closed non-instant hops are exactly the walk's spans.
    const expt::FrameTimeline tl = expt::reconstruct_frame(log, frame);
    std::vector<Hop> hops;
    for (const expt::TimelineHop& h : tl.hops) {
      if (h.phase == TracePhase::kInstant || h.open) continue;
      hops.emplace_back(h.name, h.start, h.end);
      if (h.name == spans::kService) service_ms[static_cast<std::size_t>(h.stage)] += h.dur_ms();
    }
    std::vector<Hop> paired;
    for (const PairedSpan& s : walk.spans()) {
      if (s.event->phase != TracePhase::kInstant) {
        paired.emplace_back(s.event->name, s.start(), s.end());
      }
    }
    std::sort(hops.begin(), hops.end());
    std::sort(paired.begin(), paired.end());
    EXPECT_EQ(hops, paired);

    // Critical path: its malformed-span counts are the walk's, less the
    // frame_e2e envelope (a dropped frame's e2e span never closes, and
    // the extractor treats that span as the envelope, not a path hop).
    const auto not_e2e = [](const TraceEvent* e) {
      return std::strcmp(e->name, spans::kFrameE2e) != 0;
    };
    const auto unclosed = walk.unclosed();
    int orphans = 0;
    for (const PairedSpan& s : walk.spans()) orphans += s.orphan_end() && not_e2e(s.event);
    const CriticalPath cp = extract_critical_path(frame.events);
    EXPECT_EQ(cp.open_spans, std::count_if(unclosed.begin(), unclosed.end(), not_e2e));
    EXPECT_EQ(cp.orphan_ends, orphans);
    open_spans += cp.open_spans;
  }
  EXPECT_GT(open_spans, 0);  // frames in flight at the end of the run

  // Per-stage span stats: the per-frame service spans add up to the
  // ring-wide stage totals.
  const auto stage = t.stage_spans(spans::kService);
  for (std::size_t s = 0; s < kNumStages; ++s) {
    EXPECT_NEAR(service_ms[s], stage[s].sum(), 1e-9) << to_string(static_cast<Stage>(s));
  }
  EXPECT_GT(stage[static_cast<std::size_t>(Stage::kMatching)].count(), 0u);
}

}  // namespace
}  // namespace mar::telemetry
