// Live workloads: the five-stage pipeline over loopback UDP.
//
// The five stage sockets share one net::EpollLoop on a server thread;
// each readable handler drains its FrameChannel and runs the stage
// inline, exactly the shape of examples/live_udp_pipeline.cpp. The
// clients' sockets live on a second EpollLoop, driven by the generator
// on the calling thread, so a frame is sent when it is due and never
// waits behind a stage handler: the generator's lag is measured and
// reported, and E2E is timed from each frame's scheduled send time.
//
// Each run has two phases:
//   open    a fixed aggregate frame rate (the workload constant below),
//           round-robined over the clients, regardless of completions;
//   closed  each client keeps one frame in flight; batches of a fixed
//           number of frames per client are timed.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "net/epoll_loop.h"
#include "net/frame_channel.h"
#include "report.h"
#include "spans.h"
#include "video/scene.h"
#include "vision/engine.h"
#include "vision/image.h"
#include "vision/serialize.h"
#include "wire/message.h"
#include "workloads.h"

namespace pb {
namespace {

using mar::net::FrameChannel;
using mar::net::SockAddr;
using mar::wire::FramePacket;

constexpr int kStages = 5;
// The paper's XR latency budget: a frame is a success when its correct
// result arrives within this long of its scheduled send time.
constexpr double kBudgetMs = 100.0;
// Vision pool lanes (calling thread included), fixed so the pool does
// not follow hardware_concurrency. One lane keeps every kernel on the
// server thread: on a shared 4-vCPU host, alternating runs gave a
// closed-loop capacity of 18-35 frames/s with 2 lanes (the pool's
// cross-thread hand-offs stall whenever another tenant holds a vCPU)
// and 25-27 frames/s with 1. The process runs two busy threads, the
// server loop and the generator.
constexpr int kVisionLanes = 1;
// A frame still missing this long after it was due is counted failed.
constexpr auto kFrameTimeout = std::chrono::milliseconds(1500);
// Share of --seconds given to the open phase; the rest is closed loop.
constexpr double kOpenShare = 0.8;

struct LiveSpec {
  const char* name;
  bool vision;          // run the vision stages (ar_live) or relay bytes
  int open_clients;     // clients sharing the open-loop schedule
  double open_rate_fps;  // aggregate open-loop rate
  int closed_clients;   // clients in the closed phase, one frame in flight each
  // Frames per client in one timed closed-loop batch. A batch sends a
  // whole number of input loops, so every batch does the same work:
  // ar_live's clip is heavier in its first half, so batches of half a
  // loop would alternate between a heavy and a light one.
  int closed_batch;
  double loss;          // transmit-loss harness rate on every channel
  bool rtx;
  int fec_group;
  int setup_reps;       // set-ups per run; setup_s is their median
};

// The open-loop rates sit below half of the closed-loop capacity the
// reference host (4 vCPUs shared with other tenants, whose CPU steal
// freezes the server thread for tens of ms at a time) reaches when it
// is busiest, so a slow period does not tip the open phase into a
// growing backlog: ar_live 10 of 22-38 frames/s (at 14 frames/s, two of
// ten runs in a busy period backed up to a p99 of 300 ms), relay_lossy
// 50 of 170-400 frames/s, which also gives 1000 open-loop frames at
// 25 s per run, so 10 samples lie beyond p99.
// ar_live: 640x360 frames, 320-px working width, 250 features.
constexpr LiveSpec kArLive{"ar_live", true, 2, 10.0, 2, 24, 0.0, false, 0, 3};
// relay_lossy: 180 KiB / 480 KiB payloads, 5 % loss, NACK rtx + FEC k=4.
constexpr LiveSpec kRelay{"relay_lossy", false, 4, 50.0, 4, 12, 0.05, true, 4, 101};
// Input loop lengths: ar_live frames, relay_lossy payloads.
constexpr int kLoopFrames = 48;
constexpr int kPayloads = 16;
static_assert(kArLive.closed_batch * kArLive.closed_clients % kLoopFrames == 0);
static_assert(kRelay.closed_batch * kRelay.closed_clients % kPayloads == 0);

// ---- payload codecs of the live pipeline (as in live_udp_pipeline) ----

// Image payload: u16 width, u16 height, then 8-bit pixels.
std::vector<std::uint8_t> encode_image(const mar::vision::Image& img) {
  mar::ByteWriter w(4 + img.size());
  w.put_u16(static_cast<std::uint16_t>(img.width()));
  w.put_u16(static_cast<std::uint16_t>(img.height()));
  w.put_bytes(mar::vision::to_bytes(img));
  return std::move(w).take();
}

mar::vision::Image decode_image(std::span<const std::uint8_t> bytes) {
  mar::ByteReader r(bytes);
  const int w = r.get_u16();
  const int h = r.get_u16();
  const auto pixels = r.get_bytes(static_cast<std::size_t>(w) * static_cast<std::size_t>(h));
  if (!r.ok() || w == 0 || h == 0) return {};
  return mar::vision::from_bytes(pixels.data(), w, h);
}

// Two-part payload: [u32 size_a][blob_a][u32 size_b][blob_b].
std::vector<std::uint8_t> pack2(const std::vector<std::uint8_t>& a,
                                const std::vector<std::uint8_t>& b) {
  mar::ByteWriter w(8 + a.size() + b.size());
  w.put_u32(static_cast<std::uint32_t>(a.size()));
  w.put_bytes(a);
  w.put_u32(static_cast<std::uint32_t>(b.size()));
  w.put_bytes(b);
  return std::move(w).take();
}

bool unpack2(std::span<const std::uint8_t> bytes, std::vector<std::uint8_t>& a,
             std::vector<std::uint8_t>& b) {
  mar::ByteReader r(bytes);
  const std::uint32_t na = r.get_u32();
  a = r.get_bytes(na);
  const std::uint32_t nb = r.get_u32();
  b = r.get_bytes(nb);
  return r.ok();
}

// One vision stage on `pkt`, in place. Returns false when the incoming
// payload does not parse. Shared by the served pipeline and the
// reference pass, so both run the same calls.
bool run_vision_stage(mar::vision::ArEngine& engine, int stage, FramePacket& pkt) {
  namespace vis = mar::vision;
  const std::uint64_t id = pkt.header.frame.value();
  switch (stage) {
    case 0: {
      vis::Image img;
      {
        spans::Scope c("vision.codec", id);
        img = decode_image(pkt.payload);
      }
      if (img.width() == 0) return false;
      vis::Image pre;
      {
        spans::Scope v("vision.preprocess", id);
        pre = engine.preprocess(img);
      }
      spans::Scope c("vision.codec", id);
      pkt.payload = encode_image(pre);
      return true;
    }
    case 1: {
      vis::Image img;
      {
        spans::Scope c("vision.codec", id);
        img = decode_image(pkt.payload);
      }
      if (img.width() == 0) return false;
      vis::ExtractedFeatures features;
      {
        spans::Scope v("vision.extract", id);
        features = engine.extract(img, img);
        v.set_value(features.features.size());
      }
      spans::Scope c("vision.codec", id);
      pkt.payload = vis::serialize_features(features.features);
      pkt.header.carries_state = true;
      return true;
    }
    case 2: {
      std::optional<vis::FeatureList> features;
      {
        spans::Scope c("vision.codec", id);
        features = vis::parse_features(pkt.payload);
      }
      if (!features) return false;
      std::vector<float> fisher;
      {
        spans::Scope v("vision.encode", id);
        fisher = engine.encode(*features);
      }
      spans::Scope c("vision.codec", id);
      pkt.payload = pack2(vis::serialize_features(*features), vis::serialize_floats(fisher));
      return true;
    }
    case 3: {
      std::vector<std::uint8_t> feat_blob, fisher_blob;
      std::optional<std::vector<float>> fisher;
      {
        spans::Scope c("vision.codec", id);
        if (unpack2(pkt.payload, feat_blob, fisher_blob)) fisher = vis::parse_floats(fisher_blob);
      }
      if (!fisher) return false;
      std::vector<std::uint32_t> candidates;
      {
        spans::Scope v("vision.lookup", id);
        candidates = engine.lookup(*fisher);
      }
      spans::Scope c("vision.codec", id);
      pkt.payload = pack2(feat_blob, vis::serialize_ids(candidates));
      return true;
    }
    case 4: {
      std::vector<std::uint8_t> feat_blob, id_blob;
      std::optional<vis::FeatureList> features;
      std::optional<std::vector<std::uint32_t>> candidates;
      {
        spans::Scope c("vision.codec", id);
        if (unpack2(pkt.payload, feat_blob, id_blob)) {
          features = vis::parse_features(feat_blob);
          candidates = vis::parse_ids(id_blob);
        }
      }
      if (!features || !candidates) return false;
      vis::ExtractedFeatures ef;
      ef.features = std::move(*features);
      std::vector<vis::Detection> detections;
      {
        spans::Scope v("vision.match", id);
        detections = engine.match_and_pose(ef, *candidates);
      }
      spans::Scope c("vision.codec", id);
      pkt.payload = vis::serialize_detections(detections);
      pkt.header.match_ok = !detections.empty();
      return true;
    }
    default:
      return false;
  }
}

// Sorted labels of a result payload; nullopt when it does not parse.
std::optional<std::vector<std::string>> result_labels(std::span<const std::uint8_t> payload) {
  const auto detections = mar::vision::parse_detections(payload);
  if (!detections) return std::nullopt;
  std::vector<std::string> labels;
  for (const auto& d : *detections) labels.push_back(d.label);
  std::sort(labels.begin(), labels.end());
  return labels;
}

mar::net::ChannelOptions channel_options(const LiveSpec& spec, std::uint64_t seed, int index) {
  mar::net::ChannelOptions o;
  o.enable_rtx = spec.rtx;
  o.fec_group = spec.fec_group;
  o.rtx.nack_timeout = std::chrono::milliseconds(10);
  o.tx_loss_rate = spec.loss;
  o.tx_loss_seed = seed * 1000 + static_cast<std::uint64_t>(index) + 1;
  return o;
}

// A set of FrameChannels served by one EpollLoop, with the transport
// housekeeping on a 5 ms timer of the same loop.
class Endpoints {
 public:
  using OnPacket = std::function<void(int, FrameChannel::Received&)>;

  Endpoints(const LiveSpec& spec, std::uint64_t seed, int first_index, int count) {
    for (int i = 0; i < count; ++i) {
      channels_.push_back(
          std::make_unique<FrameChannel>(channel_options(spec, seed, first_index + i)));
    }
  }
  Endpoints(const Endpoints&) = delete;
  Endpoints& operator=(const Endpoints&) = delete;

  // `handler_span` and `tick_span` name the spans around each
  // readable-handler call and each housekeeping tick.
  bool open(const char* handler_span, const char* tick_span) {
    if (!loop_.init().is_ok()) return false;
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      FrameChannel& ch = *channels_[i];
      if (!ch.open(0).is_ok()) return false;
      const auto addr = ch.local_addr();
      if (!addr.is_ok()) return false;
      addrs_.push_back(addr.value());
      const int idx = static_cast<int>(i);
      if (!loop_.add(ch.fd(), [this, &ch, idx, handler_span] {
                   spans::Scope h(handler_span);
                   drain(ch, idx);
                 })
               .is_ok()) {
        return false;
      }
    }
    loop_.schedule_after(
        std::chrono::milliseconds(5),
        [this, tick_span] {
          spans::Scope t(tick_span);
          for (auto& ch : channels_) ch->tick();
        },
        std::chrono::milliseconds(5));
    return true;
  }

  // What a readable handler does with each packet it drains.
  void set_handler(OnPacket on_packet) { on_packet_ = std::move(on_packet); }

  [[nodiscard]] FrameChannel& channel(int i) { return *channels_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] const SockAddr& addr(int i) const { return addrs_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] int size() const { return static_cast<int>(channels_.size()); }
  [[nodiscard]] mar::net::EpollLoop& loop() { return loop_; }

 private:
  void drain(FrameChannel& ch, int idx) {
    for (;;) {
      std::optional<FrameChannel::Received> r;
      {
        spans::Scope p("net.poll");
        r = ch.poll(0);
        if (r) p.set_value(r->packet.payload.size());
      }
      if (!r) return;
      if (on_packet_) on_packet_(idx, *r);
    }
  }

  std::vector<std::unique_ptr<FrameChannel>> channels_;
  std::vector<SockAddr> addrs_;
  mar::net::EpollLoop loop_;
  OnPacket on_packet_;
};

// Transport counters summed over channels.
struct NetCounters {
  std::uint64_t fragments = 0, rtx = 0, nacks = 0, fec = 0, unrecoverable = 0, dropped = 0;

  void add(const FrameChannel& ch) {
    fragments += ch.fragments_sent();
    rtx += ch.rtx_fragments_sent();
    nacks += ch.nacks_sent();
    fec += ch.fec_repairs();
    unrecoverable += ch.frames_unrecoverable();
    dropped += ch.harness_dropped();
  }
  NetCounters operator-(const NetCounters& o) const {
    return {fragments - o.fragments, rtx - o.rtx,       nacks - o.nacks,
            fec - o.fec,             unrecoverable - o.unrecoverable, dropped - o.dropped};
  }
};

// Everything a live workload sets up: the engine (ar_live), the five
// stage endpoints and the client endpoints.
struct Deployment {
  std::unique_ptr<mar::vision::ArEngine> engine;
  std::unique_ptr<Endpoints> stages;
  std::unique_ptr<Endpoints> clients;
  std::uint64_t parse_drops = 0;  // server thread only

  NetCounters counters() {
    NetCounters c;
    for (int i = 0; i < stages->size(); ++i) c.add(stages->channel(i));
    for (int i = 0; i < clients->size(); ++i) c.add(clients->channel(i));
    return c;
  }
};

std::unique_ptr<mar::vision::ArEngine> train_engine() {
  const mar::video::WorkplaceScene scene(640, 360);
  mar::vision::EngineParams params;
  params.working_width = 320;
  params.sift.max_features = 250;
  auto engine = std::make_unique<mar::vision::ArEngine>(params);
  using mar::video::SceneObject;
  engine->add_reference("monitor", scene.render_reference(SceneObject::kMonitor, 220, 140));
  engine->add_reference("keyboard", scene.render_reference(SceneObject::kKeyboard, 180, 70));
  engine->add_reference("table", scene.render_reference(SceneObject::kTable, 290, 75));
  if (!engine->finalize_training()) return nullptr;
  return engine;
}

std::unique_ptr<Deployment> deploy(const LiveSpec& spec, std::uint64_t seed) {
  auto d = std::make_unique<Deployment>();
  if (spec.vision) {
    d->engine = train_engine();
    if (!d->engine) return nullptr;
  }
  const int n_clients = std::max(spec.open_clients, spec.closed_clients);
  d->stages = std::make_unique<Endpoints>(spec, seed, 0, kStages);
  d->clients = std::make_unique<Endpoints>(spec, seed, kStages, n_clients);
  Deployment* dp = d.get();
  d->stages->set_handler([dp, &spec](int s, FrameChannel::Received& r) {
    FramePacket& pkt = r.packet;
    spans::Scope stage_span("pipeline.stage", pkt.header.frame.value());
    if (spec.vision && !run_vision_stage(*dp->engine, s, pkt)) {
      ++dp->parse_drops;
      return;
    }
    const bool last = s + 1 == kStages;
    const auto client = static_cast<std::int64_t>(pkt.header.client.value());
    if (client < 1 || client > dp->clients->size()) {  // not a frame this run sent
      ++dp->parse_drops;
      return;
    }
    if (last) pkt.header.kind = mar::wire::MessageKind::kResult;
    pkt.header.stage = static_cast<mar::Stage>(s + 1);
    pkt.header.payload_bytes = static_cast<std::uint32_t>(pkt.payload.size());
    const SockAddr& next =
        last ? dp->clients->addr(static_cast<int>(client) - 1)
             : dp->stages->addr(s + 1);
    spans::Scope send("net.send", pkt.header.frame.value());
    send.set_value(pkt.payload.size());
    dp->stages->channel(s).send(pkt, next);
  });
  // The clients' handler is installed per run by drive().
  if (!d->stages->open("net.loop_handler", "net.loop_tick") ||
      !d->clients->open("net.client_handler", "net.client_tick")) {
    return nullptr;
  }
  return d;
}

// One frame the generator can send, and what its result must be.
struct Input {
  FramePacket packet;               // header template + payload
  std::vector<std::string> labels;  // ar_live: reference labels, sorted
};

std::vector<Input> make_ar_inputs(std::uint64_t seed) {
  // A seeded loop of frames from the 10 s synthetic workplace clip,
  // replayed in clip order like the paper's replayed video: one frame
  // at a seeded time in each of kLoopFrames equal slices of the clip.
  // Frames from the first half of the clip cost about 1.3x those from
  // the second; independent draws would let the seed decide how many
  // heavy frames a run replays, and with them the latency tail.
  constexpr double kClipS = 10.0;
  const mar::video::WorkplaceScene scene(640, 360);
  mar::Rng rng(seed);
  std::vector<double> t(kLoopFrames);
  for (int i = 0; i < kLoopFrames; ++i) {
    t[static_cast<std::size_t>(i)] = (i + rng.uniform(0.0, 1.0)) * kClipS / kLoopFrames;
  }
  std::vector<Input> inputs(kLoopFrames);
  for (int i = 0; i < kLoopFrames; ++i) {
    FramePacket& p = inputs[static_cast<std::size_t>(i)].packet;
    p.header.stage = mar::Stage::kPrimary;
    p.payload = encode_image(scene.render(t[static_cast<std::size_t>(i)]));
    p.header.payload_bytes = static_cast<std::uint32_t>(p.payload.size());
  }
  return inputs;
}

std::vector<Input> make_relay_inputs(std::uint64_t seed) {
  // The paper's frame sizes: 180 KB without state (scAtteR), 480 KB
  // with the sift state carried in-band (scAtteR++), alternating.
  mar::Rng rng(seed);
  std::vector<Input> inputs(kPayloads);
  for (int i = 0; i < kPayloads; ++i) {
    FramePacket& p = inputs[static_cast<std::size_t>(i)].packet;
    const bool state = i % 2 == 1;
    p.payload.resize(state ? mar::wire::sizes::kSiftOutStateful : mar::wire::sizes::kSiftOut);
    for (std::size_t k = 0; k < p.payload.size(); k += 8) {
      const std::uint64_t v = rng.next_u64();
      std::memcpy(p.payload.data() + k, &v, std::min<std::size_t>(8, p.payload.size() - k));
    }
    p.header.stage = mar::Stage::kPrimary;
    p.header.carries_state = state;
    p.header.payload_bytes = static_cast<std::uint32_t>(p.payload.size());
  }
  return inputs;
}

// Reference labels for each ar_live input: the same five stage calls,
// run in-process before anything is timed.
bool compute_reference(mar::vision::ArEngine& engine, std::vector<Input>& inputs) {
  for (Input& in : inputs) {
    FramePacket pkt = in.packet;
    for (int s = 0; s < kStages; ++s) {
      if (!run_vision_stage(engine, s, pkt)) return false;
    }
    auto labels = result_labels(pkt.payload);
    if (!labels) return false;
    in.labels = std::move(*labels);
  }
  return true;
}

struct PhaseStats {
  std::vector<double> open_e2e_ms;  // correct open-phase frames
  std::vector<std::pair<std::uint64_t, double>> open_e2e_by_frame;
  std::vector<double> lag_ms;
  std::int64_t open_scheduled = 0;
  std::int64_t open_within_budget = 0;
  std::vector<double> batch_s;
  std::int64_t closed_results = 0;
  double closed_wall_s = 0.0;
  std::int64_t attempted = 0;
  std::int64_t missing = 0;
  std::int64_t wrong = 0;
  double wall_ms = 0.0;
  std::uint64_t loop_events = 0;
  NetCounters net;
};

// Runs one open phase and one closed phase for `seconds` in total.
PhaseStats drive(const LiveSpec& spec, Deployment& dep, std::vector<Input>& inputs,
                 std::uint64_t& next_seq, std::size_t& next_input, double seconds) {
  PhaseStats st;
  Endpoints& cl = *dep.clients;
  const NetCounters net0 = dep.counters();
  const std::uint64_t events0 = dep.stages->loop().events_dispatched();

  struct InFlight {
    Clock::time_point due;
    std::size_t input;
    int client;
    bool open;
  };
  std::unordered_map<std::uint64_t, InFlight> inflight;
  std::vector<int> remaining(static_cast<std::size_t>(spec.closed_clients), 0);

  auto send = [&](int client, Clock::time_point due, bool open) {
    const std::uint64_t seq = next_seq++;
    const std::size_t input = next_input++ % inputs.size();
    FramePacket& pkt = inputs[input].packet;
    pkt.header.client = mar::ClientId{static_cast<std::uint32_t>(client) + 1};
    pkt.header.frame = mar::FrameId{seq};
    pkt.header.capture_ts = due.time_since_epoch().count();
    inflight[seq] = InFlight{due, input, client, open};
    ++st.attempted;
    spans::Scope s("net.send", seq);
    s.set_value(pkt.payload.size());
    cl.channel(client).send(pkt, dep.stages->addr(0));
  };
  auto closed_next = [&](int client, Clock::time_point now) {
    int& left = remaining[static_cast<std::size_t>(client)];
    if (left > 0) {
      --left;
      send(client, now, false);
    }
  };
  auto correct = [&](const Input& in, const FramePacket& pkt) {
    if (pkt.header.kind != mar::wire::MessageKind::kResult) return false;
    if (!spec.vision) return pkt.payload == in.packet.payload;
    const auto labels = result_labels(pkt.payload);
    return labels && *labels == in.labels;
  };
  // Client handler: one result frame came back.
  auto on_result = [&](int, FrameChannel::Received& r) {
    const Clock::time_point now = Clock::now();
    const auto it = inflight.find(r.packet.header.frame.value());
    if (it == inflight.end()) return;  // already counted missing
    const InFlight f = it->second;
    inflight.erase(it);
    const bool ok = correct(inputs[f.input], r.packet);
    if (!ok) ++st.wrong;
    const double e2e = ms_between(f.due, now);
    if (f.open) {
      if (ok) {
        st.open_e2e_ms.push_back(e2e);
        st.open_e2e_by_frame.emplace_back(r.packet.header.frame.value(), e2e);
        if (e2e <= kBudgetMs) ++st.open_within_budget;
      }
    } else {
      if (ok) ++st.closed_results;
      closed_next(f.client, now);
    }
  };
  auto expire = [&](Clock::time_point now) {
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (now - it->second.due < kFrameTimeout) {
        ++it;
        continue;
      }
      const InFlight f = it->second;
      it = inflight.erase(it);
      ++st.missing;
      if (!f.open) closed_next(f.client, now);
    }
  };

  cl.set_handler(on_result);

  std::atomic<bool> stop{false};
  const Clock::time_point t_start = Clock::now();
  std::thread server([&] {
    dep.stages->loop().run([&] { return !stop.load(std::memory_order_relaxed); }, 5);
  });

  // --- open phase ----------------------------------------------------
  const double open_s = seconds * kOpenShare;
  const auto n_open =
      static_cast<std::int64_t>(std::max(1.0, std::floor(open_s * spec.open_rate_fps)));
  st.open_scheduled = n_open;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  auto due_at = [&](std::int64_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                    static_cast<double>(i) / spec.open_rate_fps));
  };
  std::int64_t next = 0;
  const Clock::time_point drain_deadline = due_at(n_open - 1) + kFrameTimeout;
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (next < n_open && now >= due_at(next)) {
      st.lag_ms.push_back(ms_between(due_at(next), now));
      send(static_cast<int>(next % spec.open_clients), due_at(next), true);
      ++next;
      continue;
    }
    if (next >= n_open && (inflight.empty() || now > drain_deadline)) break;
    expire(now);
    int wait_ms = 5;
    if (next < n_open) {
      const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(due_at(next) - now);
      wait_ms = static_cast<int>(std::clamp<std::int64_t>(until.count(), 0, 5));
    }
    cl.loop().run_once(wait_ms);
  }
  st.missing += static_cast<std::int64_t>(inflight.size());
  inflight.clear();

  // --- closed phase --------------------------------------------------
  const Clock::time_point closed_start = Clock::now();
  const Clock::time_point closed_end =
      closed_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds * (1.0 - kOpenShare)));
  while (Clock::now() < closed_end || st.batch_s.empty()) {
    const Clock::time_point b0 = Clock::now();
    for (int c = 0; c < spec.closed_clients; ++c) {
      remaining[static_cast<std::size_t>(c)] = spec.closed_batch - 1;
      send(c, b0, false);
    }
    for (;;) {
      const Clock::time_point now = Clock::now();
      expire(now);
      if (inflight.empty()) break;
      cl.loop().run_once(1);
    }
    st.batch_s.push_back(seconds_since(b0));
  }
  st.closed_wall_s = seconds_since(closed_start);

  stop.store(true, std::memory_order_relaxed);
  server.join();
  st.wall_ms = ms_between(t_start, Clock::now());
  st.loop_events = dep.stages->loop().events_dispatched() - events0;
  st.net = dep.counters() - net0;
  cl.set_handler(nullptr);  // on_result refers to this frame's locals
  return st;
}

// The tail percentile of an open phase of `scheduled` frames: the
// highest of p99, p95 and p90 that has at least ten frames beyond it.
// It follows the schedule, not the outcome, so a run's failures cannot
// change which percentile it reports.
int tail_percentile(std::int64_t scheduled) {
  for (const int p : {99, 95}) {
    if (scheduled * (100 - p) >= 1000) return p;
  }
  return 90;
}

void add_end_to_end(Outcome& out, const PhaseStats& st) {
  out.add("frame_e2e_p50_ms", quantile(st.open_e2e_ms, 0.50), "ms");
  out.add("frame_e2e_tail_ms",
          quantile(st.open_e2e_ms, tail_percentile(st.open_scheduled) / 100.0), "ms");
  out.add("frame_success_ratio",
          static_cast<double>(st.open_within_budget) / static_cast<double>(st.open_scheduled),
          "ratio");
  out.add("saturation_fps", static_cast<double>(st.closed_results) / st.closed_wall_s,
          "frames/s");
  // Every batch sends the same frames, so the phase's mean batch time
  // is its run time; it varies less from run to run than the median of
  // the phase's few batches.
  out.add("run_s", st.closed_wall_s / static_cast<double>(st.batch_s.size()), "s");
}

void print_phase(const char* label, const PhaseStats& st) {
  const int tail = tail_percentile(st.open_scheduled);
  const auto beyond_tail = static_cast<long long>(
      std::floor((100 - tail) / 100.0 * static_cast<double>(st.open_e2e_ms.size()) + 1e-9));
  std::printf("%s: open %lld scheduled, %zu correct (tail p%d, %lld beyond it), %lld within "
              "%.0f ms, gen lag p99 %.3f ms; closed %zu batches, %lld results in %.2f s; "
              "%lld missing, %lld wrong\n",
              label, static_cast<long long>(st.open_scheduled), st.open_e2e_ms.size(), tail,
              beyond_tail, static_cast<long long>(st.open_within_budget), kBudgetMs,
              quantile(st.lag_ms, 0.99), st.batch_s.size(),
              static_cast<long long>(st.closed_results), st.closed_wall_s,
              static_cast<long long>(st.missing), static_cast<long long>(st.wrong));
}

void add_layers(Outcome& out, const PhaseStats& st, const std::vector<spans::Span>& sp) {
  for (const char* stage : {"preprocess", "extract", "encode", "lookup", "match"}) {
    const std::string name = std::string("vision.") + stage;
    const auto d = spans::durations_ms(sp, name);
    if (!d.empty()) out.add(name + "_ms", median(d), "ms");
  }
  // Codec time and handler time per frame, summed over its spans.
  std::unordered_map<std::uint64_t, double> codec_ms, handler_ms;
  std::vector<double> features;
  for (const spans::Span& s : sp) {
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    const std::string_view n(s.name);
    if (n == "vision.codec") codec_ms[s.id] += ms;
    if (n == "pipeline.stage") handler_ms[s.id] += ms;
    if (n == "vision.extract") features.push_back(static_cast<double>(s.value));
  }
  if (!codec_ms.empty()) {
    std::vector<double> v;
    for (const auto& [id, ms] : codec_ms) v.push_back(ms);
    out.add("vision.codec_ms", median(v), "ms");
    out.add("vision.features_per_frame", median(features), "count");
  }
  const double send_mb = static_cast<double>(spans::total_value(sp, "net.send")) / 1e6;
  const double poll_mb = static_cast<double>(spans::total_value(sp, "net.poll")) / 1e6;
  out.add("net.send_us_per_mb", 1e3 * spans::total_ms(sp, "net.send") / send_mb, "us/MB");
  out.add("net.poll_us_per_mb", 1e3 * spans::total_ms(sp, "net.poll") / poll_mb, "us/MB");
  const NetCounters& n = st.net;
  out.add("net.fragments_sent", static_cast<double>(n.fragments), "count");
  out.add("net.rtx_fragments", static_cast<double>(n.rtx), "count");
  out.add("net.nacks", static_cast<double>(n.nacks), "count");
  out.add("net.fec_repairs", static_cast<double>(n.fec), "count");
  out.add("net.frames_unrecoverable", static_cast<double>(n.unrecoverable), "count");
  out.add("net.harness_dropped", static_cast<double>(n.dropped), "count");
  out.add("net.first_shot_ratio",
          static_cast<double>(n.fragments) / static_cast<double>(n.fragments + n.rtx), "ratio");
  // The server loop's handlers and ticks (the client loop's spans have
  // their own names).
  const double busy_ms =
      spans::total_ms(sp, "net.loop_handler") + spans::total_ms(sp, "net.loop_tick");
  out.add("net.loop_busy_ratio", busy_ms / st.wall_ms, "ratio");
  out.add("net.loop_events", static_cast<double>(st.loop_events), "count");
  std::vector<double> wait;
  for (const auto& [id, e2e] : st.open_e2e_by_frame) wait.push_back(e2e - handler_ms[id]);
  out.add("pipeline.wait_p50_ms", quantile(wait, 0.50), "ms");
  out.add("pipeline.wait_p99_ms", quantile(wait, 0.99), "ms");
  out.add("gen.lag_p99_ms", quantile(st.lag_ms, 0.99), "ms");
}

Outcome run_live(const LiveSpec& spec, const Args& args) {
  Outcome out;
  mar::set_parallel_threads(kVisionLanes);
  std::printf("%s: vision pool %d lanes, open %.1f frames/s over %d clients, closed %d "
              "clients x %d frames per batch, loss %.2f rtx %d fec %d\n",
              spec.name, mar::parallel_threads(), spec.open_rate_fps, spec.open_clients,
              spec.closed_clients, spec.closed_batch, spec.loss, spec.rtx ? 1 : 0,
              spec.fec_group);

  std::vector<Input> inputs =
      spec.vision ? make_ar_inputs(args.seed) : make_relay_inputs(args.seed);
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    dep.reset();
    const Clock::time_point t0 = Clock::now();
    dep = deploy(spec, args.seed);
    setup_s.push_back(seconds_since(t0));
    if (!dep) throw std::runtime_error("live set-up failed (training or socket open)");
  }
  if (spec.vision && !compute_reference(*dep->engine, inputs)) {
    throw std::runtime_error("reference pass failed");
  }

  std::uint64_t next_seq = 1;
  std::size_t next_input = 0;
  if (!args.trace) {
    const PhaseStats st = drive(spec, *dep, inputs, next_seq, next_input, args.seconds);
    print_phase(spec.name, st);
    out.count(st.attempted, st.missing + st.wrong);
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    add_end_to_end(out, st);
  } else {
    // Same workload twice at half length: untraced, then traced.
    const PhaseStats base = drive(spec, *dep, inputs, next_seq, next_input, args.seconds / 2);
    spans::reset();
    spans::set_enabled(true);
    const PhaseStats st = drive(spec, *dep, inputs, next_seq, next_input, args.seconds / 2);
    spans::set_enabled(false);
    const auto sp = spans::collect();
    print_phase("untraced half", base);
    print_phase("traced half", st);
    out.count(base.attempted + st.attempted, base.missing + base.wrong + st.missing + st.wrong);
    add_layers(out, st, sp);
    Outcome e_base, e_traced;
    add_end_to_end(e_base, base);
    add_end_to_end(e_traced, st);
    add_trace_overhead(out, e_base, e_traced);
    spans::print_self_time_table(sp, st.wall_ms, stdout);
    write_trace(args, sp);
  }
  if (dep->parse_drops > 0) {
    std::printf("%s: %llu payloads failed to parse in a stage\n", spec.name,
                static_cast<unsigned long long>(dep->parse_drops));
    out.correct = false;
  }
  return out;
}

}  // namespace

Outcome run_ar_live(const Args& args) { return run_live(kArLive, args); }
Outcome run_relay_lossy(const Args& args) { return run_live(kRelay, args); }

}  // namespace pb
