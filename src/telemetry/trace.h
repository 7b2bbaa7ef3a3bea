// Per-frame distributed tracing for the scAtteR pipeline.
//
// A low-overhead span recorder: every hop of a traced frame — sidecar
// enqueue/dequeue, staleness drop, compute start/finish, RPC hand-off,
// link transit, state-fetch round trip — records an event keyed by
// {client, frame, stage, name} into one process-wide preallocated
// buffer. Recording is a single relaxed load when tracing is disabled
// and an atomic slot claim plus a struct store when enabled, so the
// tracer can stay compiled into every hot path.
//
// Timestamps are caller-supplied SimTime nanoseconds: virtual time in
// the simulator, wall-clock (trace_wallclock_now()) in live mode. The
// recorder never allocates after reserve() and never drops silently —
// events past capacity are counted in dropped().
//
// Exporters:
//  * chrome_trace_json() — Chrome trace-event JSON, loadable in
//    Perfetto (ui.perfetto.dev); one track ("process") per service
//    replica, client, or transport, named via set_track_name().
//  * prometheus_text() — Prometheus-style plaintext gauges aggregated
//    from the recorded spans (per-stage latency accumulators, drop and
//    loss counters). Complements expt::to_prometheus(), which exports
//    the counter-based HostStats view of the same run.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/time.h"
#include "common/types.h"
#include "telemetry/stats.h"

namespace mar::telemetry {

enum class TracePhase : std::uint8_t {
  kBegin = 0,     // span opens; matched with the next kEnd of the same key
  kEnd = 1,       // span closes
  kInstant = 2,   // point event (drops, losses, timeouts)
  kComplete = 3,  // span with a known duration at record time (link transit)
  kCounter = 4,   // sampled value (queue depth, bytes)
};

// Canonical span/event names. Instrumentation sites pass these
// constants so exporters and tests can match by string content.
namespace spans {
inline constexpr const char* kService = "service";            // dispatch -> finish
inline constexpr const char* kSidecarQueue = "sidecar_queue";  // enqueue -> dequeue
inline constexpr const char* kSocketBuffer = "socket_buffer";  // scAtteR busy buffer
inline constexpr const char* kRpcHandoff = "rpc_handoff";      // sidecar -> service RPC
inline constexpr const char* kStateFetch = "state_fetch";      // matching <-> sift loop
inline constexpr const char* kLink = "link";                   // network transit
inline constexpr const char* kFrameE2e = "frame_e2e";          // capture -> result
inline constexpr const char* kDropBusy = "drop_busy";
inline constexpr const char* kDropStale = "drop_stale";
inline constexpr const char* kDropOverflow = "drop_overflow";
inline constexpr const char* kDropDown = "drop_down";
inline constexpr const char* kPacketLoss = "pkt_loss";
inline constexpr const char* kTailDrop = "pkt_taildrop";
inline constexpr const char* kFetchTimeout = "fetch_timeout";
inline constexpr const char* kUdpTx = "udp_tx";
inline constexpr const char* kUdpRx = "udp_rx";
// Live-transport recovery markers (value carries the message id):
// a NACK sent by a receiver, fragments retransmitted by the sender in
// answer, a single-loss group rebuilt from XOR parity, and a frame
// abandoned after the retransmission budget ran dry.
inline constexpr const char* kUdpNack = "udp_nack";
inline constexpr const char* kUdpRtx = "udp_rtx";
inline constexpr const char* kFecRepair = "fec_repair";
inline constexpr const char* kUnrecoverable = "frame_unrecoverable";
// Portion of a link transit spent waiting out NACK retransmission
// rounds (sim::LinkModel folds the recovery wait into the link span's
// duration; this complete span marks the stalled tail so the
// critical-path extractor can blame recovery separately from transit).
inline constexpr const char* kRtxStall = "rtx_stall";
inline constexpr const char* kFault = "fault";        // injected fault window
inline constexpr const char* kFailover = "failover";  // suspect -> respawn span
// Control-plane actions (ctrl::ScalePolicy / ctrl::ReOptimizer): why a
// replica appeared, drained, or moved, as forensics-timeline instants.
inline constexpr const char* kCtrlScaleUp = "ctrl_scale_up";
inline constexpr const char* kCtrlDrain = "ctrl_drain";      // drain began
inline constexpr const char* kCtrlRetire = "ctrl_retire";    // drain completed
inline constexpr const char* kCtrlReplan = "ctrl_replan";    // placement re-applied
inline constexpr const char* kCtrlBlocked = "ctrl_blocked";  // action withheld
inline constexpr const char* kCtrlMove = "ctrl_move";        // replica rebuilt elsewhere
inline constexpr const char* kCtrlPredict = "ctrl_predict";  // burn+trend fired early
// Synthetic instant appended when a flight-recorder buffer is promoted
// into the durable ring; `value` holds the RetainReason.
inline constexpr const char* kRetained = "retained";

// Instants after which a frame never reaches its client: the frame's
// verdict for forensics and blame, and the flight recorder's cue to
// take the retention decision on the spot.
[[nodiscard]] inline bool is_terminal_drop(std::string_view name) {
  return name == kDropBusy || name == kDropStale || name == kDropOverflow ||
         name == kDropDown || name == kPacketLoss || name == kTailDrop ||
         name == kFetchTimeout || name == kUnrecoverable;
}
}  // namespace spans

// Head-sampling default shared by core::ClientConfig::trace_sample_every,
// expt::ExperimentConfig::trace_sample_every, and the experiment_cli
// --trace_sample flag: every frame is stamped when the tracer is on.
// Tail-based retention (expt::TailRetentionConfig) composes with head
// sampling instead of replacing it — head-sampled frames keep going
// straight to the durable ring; the other frames are flight-recorded
// and only promoted when the retention policy keeps them.
inline constexpr std::uint32_t kDefaultTraceSampleEvery = 1;

// Well-known track ids. Service replicas use their InstanceId value as
// the track, so these start well above any realistic replica count.
inline constexpr std::uint32_t kNetworkTrack = 9000;
inline constexpr std::uint32_t kEngineTrack = 9100;    // single-process vision engine
inline constexpr std::uint32_t kFaultTrack = 9200;     // injected faults / recovery
inline constexpr std::uint32_t kCtrlTrack = 9300;      // control-plane actions
inline constexpr std::uint32_t kClientTrackBase = 10000;  // + ClientId

struct TraceEvent {
  SimTime ts = 0;        // ns (virtual or wall-clock)
  SimDuration dur = 0;   // kComplete only
  double value = 0.0;    // kCounter value; message-kind tag on spans
  const char* name = ""; // static-lifetime string (spans:: constants)
  std::uint64_t frame = FrameId::kInvalid;
  std::uint32_t client = ClientId::kInvalid;
  std::uint32_t track = 0;
  std::uint32_t trace_id = 0;  // FrameHeader TraceContext id; 0 = untraced
  Stage stage = Stage::kPrimary;
  TracePhase phase = TracePhase::kInstant;
  std::uint16_t lane = 0;  // thread-pool lane of the recording thread

  [[nodiscard]] SimTime end_ts() const { return phase == TracePhase::kComplete ? ts + dur : ts; }
};

// One event out of the span-pairing walk: a closed span (its kBegin
// plus the kEnd that closed it), an end with no open begin, or a
// kComplete/kInstant passed through unchanged.
struct PairedSpan {
  const TraceEvent* begin = nullptr;  // the kBegin of a closed span, else nullptr
  const TraceEvent* event = nullptr;  // the kEnd, kComplete or kInstant

  [[nodiscard]] bool orphan_end() const {
    return begin == nullptr && event->phase == TracePhase::kEnd;
  }
  // A closed or kComplete span: it has a duration.
  [[nodiscard]] bool timed() const {
    return begin != nullptr || event->phase == TracePhase::kComplete;
  }
  [[nodiscard]] SimTime start() const { return begin != nullptr ? begin->ts : event->ts; }
  [[nodiscard]] SimTime end() const { return event->end_ts(); }
};

// The one begin/end pairing walk every trace consumer reads (exporters,
// per-stage span stats, frame forensics, critical-path blame). Events
// are paired in the order they are added, LIFO per {track, name,
// client, frame, stage}, names compared by content (two translation
// units may hold distinct copies of the same literal). Counters are
// skipped. Added events must outlive the pairing.
class SpanPairing {
 public:
  SpanPairing() = default;
  SpanPairing(const TraceEvent* events, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) add(events[i]);
  }

  void add(const TraceEvent& e);

  // Closed spans, orphan ends and passed-through events, in the input
  // order of the event that produced each.
  [[nodiscard]] const std::vector<PairedSpan>& spans() const { return spans_; }
  // Begins never closed, in key order, then begin order per key.
  [[nodiscard]] std::vector<const TraceEvent*> unclosed() const;

 private:
  using Key = std::tuple<std::uint32_t, std::string_view, std::uint32_t, std::uint64_t,
                         std::uint8_t>;
  std::map<Key, std::vector<const TraceEvent*>> open_;
  std::vector<PairedSpan> spans_;
};

// Matched begin/end spans of one name on one track, in milliseconds.
struct TrackSpanStats {
  std::uint32_t track = 0;
  Stage stage = Stage::kPrimary;
  Accumulator ms;
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 19;  // ~29 MB of events

  // The process-wide recorder every instrumentation site writes to.
  static Tracer& instance();

  // Enabling with an empty buffer reserves kDefaultCapacity.
  void set_enabled(bool on);
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Preallocate space for `capacity` events. Not thread-safe against
  // concurrent record() calls; do it before traffic flows.
  void reserve(std::size_t capacity);
  // Forget all recorded events (capacity is kept). Same caveat.
  void clear();

  // --- recording (thread-safe, wait-free) ----------------------------
  // `trace_id` ties the event to a FrameHeader's TraceContext. Events
  // with a nonzero id are offered to the FlightRecorder first (tail
  // retention); untracked ids fall through to the durable ring.
  void begin(std::uint32_t track, const char* name, SimTime ts, ClientId client,
             FrameId frame, Stage stage, double value = 0.0, std::uint32_t trace_id = 0) {
    record(track, name, ts, 0, client, frame, stage, TracePhase::kBegin, value, trace_id);
  }
  void end(std::uint32_t track, const char* name, SimTime ts, ClientId client,
           FrameId frame, Stage stage, double value = 0.0, std::uint32_t trace_id = 0) {
    record(track, name, ts, 0, client, frame, stage, TracePhase::kEnd, value, trace_id);
  }
  void instant(std::uint32_t track, const char* name, SimTime ts, ClientId client,
               FrameId frame, Stage stage, double value = 0.0, std::uint32_t trace_id = 0) {
    record(track, name, ts, 0, client, frame, stage, TracePhase::kInstant, value, trace_id);
  }
  void complete(std::uint32_t track, const char* name, SimTime ts, SimDuration dur,
                ClientId client, FrameId frame, Stage stage, double value = 0.0,
                std::uint32_t trace_id = 0) {
    record(track, name, ts, dur, client, frame, stage, TracePhase::kComplete, value,
           trace_id);
  }
  void counter(std::uint32_t track, const char* name, SimTime ts, double value) {
    record(track, name, ts, 0, ClientId::invalid(), FrameId::invalid(), Stage::kPrimary,
           TracePhase::kCounter, value, 0);
  }

  // Bulk transfer into the durable ring (flight-recorder promotion):
  // claims a contiguous block of slots and copies the events verbatim.
  // Returns how many fit; the remainder counts toward dropped().
  std::size_t append(const TraceEvent* events, std::size_t n);

  // Nonzero id for a FrameHeader's TraceContext.
  [[nodiscard]] std::uint32_t next_trace_id() {
    const std::uint32_t id = next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    return id == 0 ? 1 : id;
  }

  // --- track metadata -------------------------------------------------
  void set_track_name(std::uint32_t track, std::string name);
  [[nodiscard]] std::string track_name(std::uint32_t track) const;
  [[nodiscard]] std::unordered_map<std::uint32_t, std::string> track_names() const;

  // --- inspection ------------------------------------------------------
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return events_.size(); }
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  // Copy of the recorded events in record order.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  // Matched spans named `name`, grouped per track, restricted to spans
  // whose END falls at/after `min_end_ts` — the same admission rule as
  // a histogram that was reset at `min_end_ts`, so trace-derived means
  // are comparable 1:1 with HostStats means over a measurement window.
  [[nodiscard]] std::vector<TrackSpanStats> replica_spans(
      const char* name, SimTime min_end_ts = std::numeric_limits<SimTime>::min()) const;

  // Pooled per-stage latency of matched spans named `name` (ms).
  [[nodiscard]] std::array<Accumulator, kNumStages> stage_spans(
      const char* name, SimTime min_end_ts = std::numeric_limits<SimTime>::min()) const;

  // --- exporters --------------------------------------------------------
  [[nodiscard]] std::string chrome_trace_json() const;
  bool write_chrome_trace(const std::string& path) const;
  [[nodiscard]] std::string prometheus_text() const;
  // Line-oriented raw event log ("# mar-trace-events v1"), the format
  // the frame_forensics CLI reads back (expt::load_trace_log). Unlike
  // the Chrome JSON, it keeps unmatched begins and trace ids verbatim.
  [[nodiscard]] std::string event_log_text() const;
  bool write_event_log(const std::string& path) const;

 private:
  void record(std::uint32_t track, const char* name, SimTime ts, SimDuration dur,
              ClientId client, FrameId frame, Stage stage, TracePhase phase, double value,
              std::uint32_t trace_id);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint32_t> next_trace_id_{0};
  std::vector<TraceEvent> events_;  // fixed capacity; slots claimed via next_

  mutable std::mutex meta_mu_;
  std::unordered_map<std::uint32_t, std::string> track_names_;
};

// Monotonic wall-clock nanoseconds since the first call, for tracing
// live (non-simulated) code paths on the same SimTime axis.
[[nodiscard]] SimTime trace_wallclock_now();

}  // namespace mar::telemetry
