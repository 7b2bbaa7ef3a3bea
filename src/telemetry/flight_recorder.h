// Per-frame flight recorder: the buffering half of tail-based trace
// retention.
//
// Head sampling (ClientConfig::trace_sample_every) decides *up front*
// which frames to trace, so the frames that blow the p99 budget or die
// inside a fault window are almost never the ones retained. The flight
// recorder inverts that: every in-flight frame's spans are captured in
// a small fixed-size buffer, and only *at frame completion* does the
// retention policy (expt::TailSampler) decide whether to promote the
// buffer into the Tracer's durable ring or recycle it.
//
// Mechanics:
//  * A fixed pool of direct-mapped buffer slots, indexed by
//    trace_id & (slots-1). Concurrent pool lanes recording different
//    frames therefore touch disjoint slots (and cache lines) — the
//    sharding falls out of the trace-id mapping. No allocation happens
//    after configure(); the hot path is one relaxed load when flight
//    recording is off, and an id check plus a count fetch_add when on.
//  * Drop/loss instants (spans::is_terminal_drop: drop_busy,
//    drop_stale, drop_overflow, drop_down, pkt_loss, pkt_taildrop,
//    fetch_timeout, frame_unrecoverable) are terminal for a frame —
//    the client will never close it — so recording one immediately
//    flushes the buffer into the durable ring (reason kDrop) and frees
//    the slot. Later events of the same frame, if any, fall through to
//    the ring directly, keeping the timeline complete.
//  * A slot whose occupant never completed (e.g. a frame silently
//    swallowed by a dead endpoint) is evicted when a colliding trace_id
//    opens it; evictions are counted, not promoted.
//
// Every promotion appends a synthetic `retained` instant whose value is
// the RetainReason, so exporters and the forensics CLI can tell *why* a
// trace survived.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstddef>
#include <memory>

#include "common/time.h"
#include "common/types.h"
#include "telemetry/trace.h"

namespace mar::telemetry {

namespace internal {
extern std::atomic<bool> g_flight_enabled;
}  // namespace internal

// Process-wide gate, mirroring metrics_enabled(): one relaxed load per
// recorded event when flight recording is off.
[[nodiscard]] inline bool flight_recording_enabled() {
  return internal::g_flight_enabled.load(std::memory_order_relaxed);
}

// Why a flight-recorded frame was promoted into the durable ring.
enum class RetainReason : std::uint8_t {
  kNone = 0,
  kBaseline = 1,  // deterministic 1-in-N background sample
  kSlo = 2,       // closed during an SLO-window violation
  kFault = 3,     // closed inside an active injected-fault window
  kOutlier = 4,   // E2E latency at/above the rolling-p99 outlier bar
  kDrop = 5,      // terminal drop/loss instant flushed the buffer
};

[[nodiscard]] constexpr const char* to_string(RetainReason r) {
  switch (r) {
    case RetainReason::kNone: return "none";
    case RetainReason::kBaseline: return "baseline";
    case RetainReason::kSlo: return "slo_breach";
    case RetainReason::kFault: return "fault_window";
    case RetainReason::kOutlier: return "p99_outlier";
    case RetainReason::kDrop: return "drop";
  }
  return "?";
}

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultBuffers = 1024;  // power of two
  // Spans per frame: a 5-stage pipeline with queue/RPC/link/state-fetch
  // hops records ~25 events per frame; 64 leaves slack for retries.
  static constexpr std::size_t kEventsPerBuffer = 64;

  static FlightRecorder& instance();

  // Allocate `buffers` slots (rounded up to a power of two). Not
  // thread-safe against concurrent record() traffic — call it before
  // frames flow, like Tracer::reserve().
  void configure(std::size_t buffers);
  // Enables the gate; allocates kDefaultBuffers if configure() was
  // never called.
  void set_enabled(bool on);
  [[nodiscard]] bool enabled() const { return flight_recording_enabled(); }
  // Free every slot and zero the stats (capacity kept). Same caveat.
  void reset();

  // Claim the slot for a frame entering flight. Evicts a stale
  // occupant (counted in stats().evicted).
  void open(std::uint32_t trace_id);
  [[nodiscard]] bool is_open(std::uint32_t trace_id) const;

  // Offer an event to the recorder. Returns true when consumed —
  // buffered in the frame's slot, or drop-flushed to the durable ring —
  // and false when no slot is open for the event's trace_id (the caller
  // records it durably as usual).
  bool try_record(const TraceEvent& e);

  // Completion-point verdicts. promote() copies the buffered events
  // plus a `retained` instant (at `ts`, on the client's track) into the
  // Tracer ring; both free the slot. Each returns false when the slot
  // no longer holds `trace_id` (already drop-flushed or evicted).
  bool promote(std::uint32_t trace_id, ClientId client, FrameId frame, SimTime ts,
               RetainReason reason);
  bool recycle(std::uint32_t trace_id);

  struct Stats {
    std::uint64_t opened = 0;
    std::uint64_t promoted = 0;      // promote() calls that found their slot
    std::uint64_t drop_flushed = 0;  // buffers flushed by a terminal drop instant
    std::uint64_t recycled = 0;
    std::uint64_t evicted = 0;    // stale occupants displaced by a colliding open()
    std::uint64_t truncated = 0;  // events past kEventsPerBuffer (consumed, lost)
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t buffer_count() const { return slot_count_; }

 private:
  struct Slot {
    std::atomic<std::uint32_t> id{0};  // 0 = free
    std::atomic<std::uint32_t> count{0};
    TraceEvent events[kEventsPerBuffer];
  };

  FlightRecorder() = default;
  [[nodiscard]] Slot* slot_of(std::uint32_t trace_id) const;
  // Append a slot's buffered events (+ optional extra event) and the
  // retained instant to the Tracer ring, then free the slot.
  void flush(Slot& slot, const TraceEvent* extra, ClientId client, FrameId frame,
             SimTime ts, std::uint32_t trace_id, RetainReason reason);

  std::unique_ptr<Slot[]> slots_;
  std::size_t slot_count_ = 0;  // power of two (0 until configured)

  std::atomic<std::uint64_t> opened_{0};
  std::atomic<std::uint64_t> promoted_{0};
  std::atomic<std::uint64_t> drop_flushed_{0};
  std::atomic<std::uint64_t> recycled_{0};
  std::atomic<std::uint64_t> evicted_{0};
  std::atomic<std::uint64_t> truncated_{0};
};

}  // namespace mar::telemetry
