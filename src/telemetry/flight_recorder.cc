#include "telemetry/flight_recorder.h"

#include <algorithm>

namespace mar::telemetry {

namespace internal {
std::atomic<bool> g_flight_enabled{false};
}  // namespace internal

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::configure(std::size_t buffers) {
  slot_count_ = round_up_pow2(buffers == 0 ? kDefaultBuffers : buffers);
  slots_ = std::make_unique<Slot[]>(slot_count_);
  reset();
}

void FlightRecorder::set_enabled(bool on) {
  if (on && slot_count_ == 0) configure(kDefaultBuffers);
  internal::g_flight_enabled.store(on, std::memory_order_relaxed);
}

void FlightRecorder::reset() {
  for (std::size_t i = 0; i < slot_count_; ++i) {
    slots_[i].id.store(0, std::memory_order_relaxed);
    slots_[i].count.store(0, std::memory_order_relaxed);
  }
  opened_.store(0, std::memory_order_relaxed);
  promoted_.store(0, std::memory_order_relaxed);
  drop_flushed_.store(0, std::memory_order_relaxed);
  recycled_.store(0, std::memory_order_relaxed);
  evicted_.store(0, std::memory_order_relaxed);
  truncated_.store(0, std::memory_order_relaxed);
}

FlightRecorder::Slot* FlightRecorder::slot_of(std::uint32_t trace_id) const {
  if (slot_count_ == 0 || trace_id == 0) return nullptr;
  return &slots_[trace_id & (slot_count_ - 1)];
}

void FlightRecorder::open(std::uint32_t trace_id) {
  Slot* slot = slot_of(trace_id);
  if (slot == nullptr) return;
  const std::uint32_t occupant = slot->id.load(std::memory_order_relaxed);
  if (occupant != 0 && occupant != trace_id) {
    // The previous frame in this slot never reached a verdict (e.g. it
    // was swallowed by a dead endpoint). Its buffer is discarded.
    evicted_.fetch_add(1, std::memory_order_relaxed);
  }
  slot->count.store(0, std::memory_order_relaxed);
  slot->id.store(trace_id, std::memory_order_release);
  opened_.fetch_add(1, std::memory_order_relaxed);
}

bool FlightRecorder::is_open(std::uint32_t trace_id) const {
  const Slot* slot = slot_of(trace_id);
  return slot != nullptr && slot->id.load(std::memory_order_acquire) == trace_id;
}

bool FlightRecorder::try_record(const TraceEvent& e) {
  Slot* slot = slot_of(e.trace_id);
  if (slot == nullptr || slot->id.load(std::memory_order_acquire) != e.trace_id) {
    return false;
  }
  // After a terminal drop the client never closes the frame, so the
  // retention verdict has to be taken on the spot.
  if (e.phase == TracePhase::kInstant && spans::is_terminal_drop(e.name)) {
    drop_flushed_.fetch_add(1, std::memory_order_relaxed);
    flush(*slot, &e, ClientId{e.client}, FrameId{e.frame}, e.ts, e.trace_id,
          RetainReason::kDrop);
    return true;
  }
  const std::uint32_t idx = slot->count.fetch_add(1, std::memory_order_relaxed);
  if (idx >= kEventsPerBuffer) {
    truncated_.fetch_add(1, std::memory_order_relaxed);
    return true;  // consumed: a truncated frame must not half-spill into the ring
  }
  slot->events[idx] = e;
  return true;
}

void FlightRecorder::flush(Slot& slot, const TraceEvent* extra, ClientId client,
                           FrameId frame, SimTime ts, std::uint32_t trace_id,
                           RetainReason reason) {
  auto& tracer = Tracer::instance();
  const std::uint32_t buffered =
      std::min<std::uint32_t>(slot.count.load(std::memory_order_relaxed),
                              static_cast<std::uint32_t>(kEventsPerBuffer));
  tracer.append(slot.events, buffered);
  if (extra != nullptr) tracer.append(extra, 1);

  TraceEvent retained{};
  retained.ts = ts;
  retained.name = spans::kRetained;
  retained.value = static_cast<double>(reason);
  retained.frame = frame.value();
  retained.client = client.value();
  retained.track = kClientTrackBase + client.value();
  retained.trace_id = trace_id;
  retained.stage = Stage::kResult;
  retained.phase = TracePhase::kInstant;
  tracer.append(&retained, 1);

  slot.count.store(0, std::memory_order_relaxed);
  slot.id.store(0, std::memory_order_release);
}

bool FlightRecorder::promote(std::uint32_t trace_id, ClientId client, FrameId frame,
                             SimTime ts, RetainReason reason) {
  Slot* slot = slot_of(trace_id);
  if (slot == nullptr || slot->id.load(std::memory_order_acquire) != trace_id) {
    return false;
  }
  promoted_.fetch_add(1, std::memory_order_relaxed);
  flush(*slot, nullptr, client, frame, ts, trace_id, reason);
  return true;
}

bool FlightRecorder::recycle(std::uint32_t trace_id) {
  Slot* slot = slot_of(trace_id);
  if (slot == nullptr || slot->id.load(std::memory_order_acquire) != trace_id) {
    return false;
  }
  slot->count.store(0, std::memory_order_relaxed);
  slot->id.store(0, std::memory_order_release);
  recycled_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

FlightRecorder::Stats FlightRecorder::stats() const {
  Stats s;
  s.opened = opened_.load(std::memory_order_relaxed);
  s.promoted = promoted_.load(std::memory_order_relaxed);
  s.drop_flushed = drop_flushed_.load(std::memory_order_relaxed);
  s.recycled = recycled_.load(std::memory_order_relaxed);
  s.evicted = evicted_.load(std::memory_order_relaxed);
  s.truncated = truncated_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace mar::telemetry
