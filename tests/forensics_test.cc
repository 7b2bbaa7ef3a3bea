#include "expt/forensics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "expt/experiment.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/trace.h"

namespace mar::expt {
namespace {

using telemetry::Tracer;
using telemetry::spans::kDropStale;
using telemetry::spans::kFrameE2e;
using telemetry::spans::kLink;
using telemetry::spans::kRetained;
using telemetry::spans::kService;
using telemetry::spans::kSidecarQueue;

constexpr std::uint32_t kClientTrack = telemetry::kClientTrackBase + 0;

struct ForensicsTest : ::testing::Test {
  void SetUp() override {
    auto& tracer = Tracer::instance();
    tracer.reserve(4096);
    tracer.set_enabled(true);
    tracer.clear();
    tracer.set_track_name(kClientTrack, "client#0");
    tracer.set_track_name(0, "primary#0 (E2)");
  }
  void TearDown() override { Tracer::instance().clear(); }

  // A minimal delivered frame: e2e span wrapping a link hop and a
  // service span, all carrying `id`.
  static void record_delivered(std::uint32_t id, SimTime start, SimTime dur) {
    auto& t = Tracer::instance();
    const ClientId c{0};
    const FrameId f{id};
    t.begin(kClientTrack, kFrameE2e, start, c, f, Stage::kPrimary, 0.0, id);
    t.complete(telemetry::kNetworkTrack, kLink, start, dur / 4, c, f, Stage::kPrimary, 0.0, id);
    t.begin(0, kService, start + dur / 4, c, f, Stage::kPrimary, 0.0, id);
    t.end(0, kService, start + dur / 2, c, f, Stage::kPrimary, 0.0, id);
    t.end(kClientTrack, kFrameE2e, start + dur, c, f, Stage::kPrimary, 0.0, id);
  }
};

TEST_F(ForensicsTest, ReconstructsADeliveredFrame) {
  record_delivered(42, 1'000'000, 8'000'000);
  const TraceLog log = from_tracer(Tracer::instance());
  const auto tl = reconstruct_frame(log, 42);
  ASSERT_TRUE(tl.has_value());
  EXPECT_EQ(tl->trace_id, 42u);
  EXPECT_EQ(tl->verdict, "result");
  EXPECT_TRUE(tl->complete());
  EXPECT_NEAR(tl->span_ms(), 8.0, 1e-9);
  // Hops are sorted by start and the service span paired begin/end.
  ASSERT_GE(tl->hops.size(), 3u);
  EXPECT_TRUE(std::is_sorted(tl->hops.begin(), tl->hops.end(),
                             [](const TimelineHop& a, const TimelineHop& b) {
                               return a.start < b.start;
                             }));
  const auto svc = std::find_if(tl->hops.begin(), tl->hops.end(), [](const TimelineHop& h) {
    return h.name == kService;
  });
  ASSERT_NE(svc, tl->hops.end());
  EXPECT_FALSE(svc->open);
  EXPECT_NEAR(svc->dur_ms(), 2.0, 1e-9);
  EXPECT_EQ(svc->track, "primary#0 (E2)");
  const std::string text = render_timeline(*tl);
  EXPECT_NE(text.find("verdict result"), std::string::npos);
  EXPECT_NE(text.find("per-hop budget"), std::string::npos);
}

TEST_F(ForensicsTest, DropInstantBecomesTheVerdict) {
  for (const char* drop : {kDropStale, telemetry::spans::kUnrecoverable}) {
    SCOPED_TRACE(drop);
    auto& t = Tracer::instance();
    t.clear();
    const ClientId c{0};
    const FrameId f{7};
    t.begin(kClientTrack, kFrameE2e, 100, c, f, Stage::kPrimary, 0.0, 7);
    t.begin(0, kSidecarQueue, 200, c, f, Stage::kPrimary, 0.0, 7);
    t.instant(0, drop, 900, c, f, Stage::kPrimary, 0.0, 7);
    t.instant(kClientTrack, kRetained, 900, c, f, Stage::kPrimary,
              static_cast<double>(telemetry::RetainReason::kDrop), 7);

    const TraceLog log = from_tracer(Tracer::instance());
    const auto tl = reconstruct_frame(log, 7);
    ASSERT_TRUE(tl.has_value());
    EXPECT_EQ(tl->verdict, drop);
    EXPECT_TRUE(tl->complete());
    EXPECT_EQ(tl->retain_reason, telemetry::RetainReason::kDrop);
    EXPECT_EQ(dropped_trace_ids(log), std::vector<std::uint32_t>{7});
    // The retained marker is metadata, not a hop; the unmatched queue
    // begin surfaces as an open hop.
    for (const auto& h : tl->hops) EXPECT_NE(h.name, kRetained);
    const auto queue = std::find_if(tl->hops.begin(), tl->hops.end(), [](const TimelineHop& h) {
      return h.name == kSidecarQueue;
    });
    ASSERT_NE(queue, tl->hops.end());
    EXPECT_TRUE(queue->open);
  }
}

TEST_F(ForensicsTest, UnknownTraceIdIsNullopt) {
  record_delivered(1, 0, 1'000'000);
  const TraceLog log = from_tracer(Tracer::instance());
  EXPECT_FALSE(reconstruct_frame(log, 999).has_value());
}

TEST_F(ForensicsTest, EventLogRoundTripsThroughParse) {
  record_delivered(3, 500'000, 4'000'000);
  auto& t = Tracer::instance();
  t.instant(0, kDropStale, 42, ClientId{0}, FrameId{9}, Stage::kSift, 1.25, 4);

  const std::string text = t.event_log_text();
  const auto parsed = parse_trace_log(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->events.size(), t.size());
  EXPECT_EQ(parsed->track_label(0), "primary#0 (E2)");

  // Reconstruction from the parsed log matches the live one.
  const auto live = reconstruct_frame(from_tracer(t), 3);
  const auto disk = reconstruct_frame(*parsed, 3);
  ASSERT_TRUE(live && disk);
  EXPECT_EQ(live->verdict, disk->verdict);
  EXPECT_EQ(live->hops.size(), disk->hops.size());
  EXPECT_DOUBLE_EQ(live->span_ms(), disk->span_ms());

  const auto inst = std::find_if(parsed->events.begin(), parsed->events.end(),
                                 [](const telemetry::TraceEvent& e) { return e.trace_id == 4; });
  ASSERT_NE(inst, parsed->events.end());
  EXPECT_EQ(std::string(inst->name), kDropStale);
  EXPECT_EQ(inst->stage, Stage::kSift);
  EXPECT_DOUBLE_EQ(inst->value, 1.25);
}

TEST_F(ForensicsTest, ParseRejectsWrongHeaderAndSkipsGarbageLines) {
  EXPECT_FALSE(parse_trace_log("not an event log\n").has_value());
  const auto parsed = parse_trace_log(
      "# mar-trace-events v1\n"
      "track 5 sift#1\n"
      "this line is garbage\n"
      "ev 100 0 0 2 1 5 0 0 2 8 drop_stale\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->events.size(), 1u);
  EXPECT_EQ(parsed->track_label(5), "sift#1");
}

TEST_F(ForensicsTest, WorstAndDroppedRankings) {
  record_delivered(10, 0, 2'000'000);           // 2 ms
  record_delivered(11, 5'000'000, 9'000'000);   // 9 ms — worst
  record_delivered(12, 1'000'000, 4'000'000);   // 4 ms
  auto& t = Tracer::instance();
  t.begin(kClientTrack, kFrameE2e, 100, ClientId{0}, FrameId{13}, Stage::kPrimary, 0.0, 13);
  t.instant(0, kDropStale, 600'100, ClientId{0}, FrameId{13}, Stage::kPrimary, 0.0, 13);

  const TraceLog log = from_tracer(t);
  const auto worst = worst_trace_ids(log, 2);
  ASSERT_EQ(worst.size(), 2u);
  EXPECT_EQ(worst[0], 11u);
  EXPECT_EQ(worst[1], 12u);
  const auto dropped = dropped_trace_ids(log);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0], 13u);
  EXPECT_EQ(group_by_trace(log).size(), 4u);
}

// Retention end to end: a small scAtteR++ experiment with the tail
// policy on must keep the deterministic baseline sample, reconstruct
// every retained trace completely, and leave nothing in the ring when
// retention is off (head sampling 0 + retention unset => no traces).
TEST_F(ForensicsTest, ExperimentRetentionIntegration) {
  ExperimentConfig cfg;
  cfg.mode = core::PipelineMode::kScatterPP;
  cfg.num_clients = 1;
  cfg.warmup = seconds(1.0);
  cfg.duration = seconds(5.0);
  cfg.seed = 42;
  cfg.trace_sample_every = 0;
  cfg.retention.emplace();
  cfg.retention->baseline_every = 16;

  Experiment e(cfg);
  e.run();
  const RetentionReport ret = e.result().retention;
  EXPECT_TRUE(ret.enabled);
  EXPECT_GT(ret.frames_closed, 0u);
  EXPECT_GT(ret.retained_baseline, 0u);
  EXPECT_EQ(ret.frames_closed,
            ret.retained_slo + ret.retained_fault + ret.retained_outlier +
                ret.retained_baseline + ret.recycled);

  const TraceLog log = from_tracer(Tracer::instance());
  const auto frames = group_by_trace(log);
  EXPECT_EQ(frames.size(), ret.retained_total());
  for (const FrameEvents& frame : frames) {
    const FrameTimeline tl = reconstruct_frame(log, frame);
    EXPECT_TRUE(tl.complete()) << "trace " << frame.trace_id << " verdict " << tl.verdict;
    EXPECT_NE(tl.retain_reason, telemetry::RetainReason::kNone) << "trace " << frame.trace_id;
  }

  // Control: retention unset + head sampling off leaves the ring empty.
  Tracer::instance().clear();
  ExperimentConfig off = cfg;
  off.retention.reset();
  Experiment e2(off);
  e2.run();
  EXPECT_FALSE(e2.result().retention.enabled);
  EXPECT_EQ(Tracer::instance().size(), 0u);
}

}  // namespace
}  // namespace mar::expt
