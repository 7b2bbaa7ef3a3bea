#include "telemetry/flight_recorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "telemetry/trace.h"

namespace mar::telemetry {
namespace {

TraceEvent make_event(std::uint32_t trace_id, const char* name, TracePhase phase,
                      SimTime ts = 1000) {
  TraceEvent e;
  e.ts = ts;
  e.name = name;
  e.trace_id = trace_id;
  e.client = 3;
  e.frame = 17;
  e.track = kClientTrackBase + 3;
  e.phase = phase;
  return e;
}

std::vector<TraceEvent> ring_events() { return Tracer::instance().snapshot(); }

std::size_t ring_count(std::uint32_t trace_id) {
  const auto events = ring_events();
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [trace_id](const TraceEvent& e) { return e.trace_id == trace_id; }));
}

struct FlightRecorderTest : ::testing::Test {
  void SetUp() override {
    auto& tracer = Tracer::instance();
    tracer.reserve(4096);
    tracer.set_enabled(true);
    tracer.clear();
    recorder().configure(8);  // 8 slots: ids 1 and 9 collide
    recorder().set_enabled(true);
  }
  void TearDown() override {
    recorder().set_enabled(false);
    recorder().reset();
    Tracer::instance().clear();
  }
  static FlightRecorder& recorder() { return FlightRecorder::instance(); }
};

TEST_F(FlightRecorderTest, BufferedEventsStayOutOfTheRingUntilPromoted) {
  recorder().open(5);
  EXPECT_TRUE(recorder().is_open(5));
  EXPECT_TRUE(recorder().try_record(make_event(5, spans::kService, TracePhase::kBegin)));
  EXPECT_TRUE(recorder().try_record(make_event(5, spans::kService, TracePhase::kEnd, 2000)));
  EXPECT_EQ(ring_count(5), 0u);

  EXPECT_TRUE(recorder().promote(5, ClientId{3}, FrameId{17}, 2500, RetainReason::kOutlier));
  // Both buffered events plus the synthetic `retained` instant.
  EXPECT_EQ(ring_count(5), 3u);
  const auto events = ring_events();
  const auto retained = std::find_if(events.begin(), events.end(), [](const TraceEvent& e) {
    return std::string(e.name) == spans::kRetained;
  });
  ASSERT_NE(retained, events.end());
  EXPECT_EQ(retained->trace_id, 5u);
  EXPECT_EQ(retained->ts, 2500);
  EXPECT_EQ(retained->value, static_cast<double>(RetainReason::kOutlier));
  EXPECT_EQ(recorder().stats().promoted, 1u);
  EXPECT_FALSE(recorder().is_open(5));
}

TEST_F(FlightRecorderTest, RecycleDiscardsTheBuffer) {
  recorder().open(6);
  EXPECT_TRUE(recorder().try_record(make_event(6, spans::kService, TracePhase::kBegin)));
  EXPECT_TRUE(recorder().recycle(6));
  EXPECT_EQ(ring_count(6), 0u);
  EXPECT_EQ(recorder().stats().recycled, 1u);
  // The slot is free: a later verdict for the same id finds nothing.
  EXPECT_FALSE(recorder().promote(6, ClientId{3}, FrameId{17}, 1, RetainReason::kBaseline));
}

TEST_F(FlightRecorderTest, TerminalDropInstantFlushesImmediately) {
  for (const char* drop : {spans::kDropStale, spans::kUnrecoverable}) {
    SCOPED_TRACE(drop);
    Tracer::instance().clear();
    recorder().reset();
    recorder().open(7);
    EXPECT_TRUE(recorder().try_record(make_event(7, spans::kLink, TracePhase::kBegin)));
    EXPECT_TRUE(recorder().try_record(make_event(7, drop, TracePhase::kInstant, 3000)));

    // Buffered span + the drop instant + the synthetic retained instant.
    EXPECT_EQ(ring_count(7), 3u);
    EXPECT_EQ(recorder().stats().drop_flushed, 1u);
    const auto events = ring_events();
    const auto retained = std::find_if(events.begin(), events.end(), [](const TraceEvent& e) {
      return std::string(e.name) == spans::kRetained;
    });
    ASSERT_NE(retained, events.end());
    EXPECT_EQ(retained->value, static_cast<double>(RetainReason::kDrop));
    // The frame never closes; its promote must miss.
    EXPECT_FALSE(recorder().promote(7, ClientId{3}, FrameId{17}, 1, RetainReason::kSlo));
  }
}

TEST_F(FlightRecorderTest, CollidingOpenEvictsTheStaleOccupant) {
  recorder().open(1);
  EXPECT_TRUE(recorder().try_record(make_event(1, spans::kService, TracePhase::kBegin)));
  recorder().open(9);  // 9 & 7 == 1 & 7 with 8 slots
  EXPECT_EQ(recorder().stats().evicted, 1u);
  EXPECT_FALSE(recorder().is_open(1));
  EXPECT_TRUE(recorder().is_open(9));
  EXPECT_FALSE(recorder().promote(1, ClientId{3}, FrameId{17}, 1, RetainReason::kBaseline));
  EXPECT_TRUE(recorder().promote(9, ClientId{3}, FrameId{17}, 1, RetainReason::kBaseline));
  EXPECT_EQ(ring_count(1), 0u);  // evicted events are gone, not promoted
}

TEST_F(FlightRecorderTest, OverflowingBufferTruncatesWithoutSpilling) {
  recorder().open(2);
  const std::size_t extra = 5;
  for (std::size_t i = 0; i < FlightRecorder::kEventsPerBuffer + extra; ++i) {
    EXPECT_TRUE(recorder().try_record(
        make_event(2, spans::kService, TracePhase::kBegin, static_cast<SimTime>(i))));
  }
  EXPECT_EQ(recorder().stats().truncated, extra);
  EXPECT_EQ(ring_count(2), 0u);  // truncation must not half-spill into the ring
  EXPECT_TRUE(recorder().promote(2, ClientId{3}, FrameId{17}, 1, RetainReason::kSlo));
  EXPECT_EQ(ring_count(2), FlightRecorder::kEventsPerBuffer + 1);  // + retained
}

TEST_F(FlightRecorderTest, EventsWithoutAnOpenSlotAreNotConsumed) {
  // trace_id 0 (untraced) and an id nobody opened both fall through to
  // the caller, which records them durably as usual.
  EXPECT_FALSE(recorder().try_record(make_event(0, spans::kService, TracePhase::kBegin)));
  EXPECT_FALSE(recorder().try_record(make_event(4, spans::kService, TracePhase::kBegin)));
}

TEST_F(FlightRecorderTest, DisabledGateIsProcessWide) {
  recorder().set_enabled(false);
  EXPECT_FALSE(flight_recording_enabled());
  recorder().set_enabled(true);
  EXPECT_TRUE(flight_recording_enabled());
}

TEST_F(FlightRecorderTest, TracerRoutesTracedEventsThroughOpenSlots) {
  // End-to-end through Tracer::record(): a traced event with an open
  // slot is buffered, not appended to the ring.
  auto& tracer = Tracer::instance();
  recorder().open(11);
  tracer.instant(kNetworkTrack, spans::kUdpTx, 100, ClientId{1}, FrameId{2},
                 Stage::kPrimary, 0.0, /*trace_id=*/11);
  EXPECT_EQ(ring_count(11), 0u);
  tracer.instant(kNetworkTrack, spans::kUdpTx, 100, ClientId{1}, FrameId{2},
                 Stage::kPrimary, 0.0, /*trace_id=*/12);  // no slot: straight to the ring
  EXPECT_EQ(ring_count(12), 1u);
  EXPECT_TRUE(recorder().recycle(11));
}

}  // namespace
}  // namespace mar::telemetry
