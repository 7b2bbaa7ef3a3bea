#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>

namespace pb::spans {
namespace {

std::atomic<bool> g_enabled{false};

struct ThreadBuf {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::int32_t> open;  // stack of open span slots
};

std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;  // guarded by g_mu; never shrinks
thread_local ThreadBuf* t_buf = nullptr;

ThreadBuf& local_buf() {
  if (t_buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    g_bufs.back()->thread = static_cast<std::uint32_t>(g_bufs.size());
    g_bufs.back()->spans.reserve(1u << 14);
    t_buf = g_bufs.back().get();
  }
  return *t_buf;
}

std::string_view layer_of(const char* name) {
  const std::string_view n(name);
  return n.substr(0, n.find('.'));
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Scope::Scope(const char* name, std::uint64_t id) {
  if (!enabled()) return;
  ThreadBuf& b = local_buf();
  Span s;
  s.name = name;
  s.parent = b.open.empty() ? -1 : b.open.back();
  s.thread = b.thread;
  s.id = id;
  index_ = static_cast<std::int32_t>(b.spans.size());
  b.spans.push_back(s);
  b.open.push_back(index_);
  b.spans.back().start_ns = now_ns();
}

Scope::~Scope() {
  if (index_ < 0) return;
  ThreadBuf& b = *t_buf;
  b.spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
  b.open.pop_back();
}

void Scope::set_value(std::uint64_t v) {
  if (index_ >= 0) t_buf->spans[static_cast<std::size_t>(index_)].value = v;
}

std::vector<Span> collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<Span> all;
  for (const auto& b : g_bufs) {
    const auto offset = static_cast<std::int32_t>(all.size());
    for (Span s : b->spans) {
      if (s.parent >= 0) s.parent += offset;
      all.push_back(s);
    }
  }
  return all;
}

void reset() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& b : g_bufs) {
    b->spans.clear();
    b->open.clear();
  }
}

std::vector<double> durations_ms(const std::vector<Span>& spans, std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

double total_ms(const std::vector<Span>& spans, std::string_view name) {
  double t = 0.0;
  for (const Span& s : spans) {
    if (name == s.name) t += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return t;
}

std::uint64_t total_value(const std::vector<Span>& spans, std::string_view name) {
  std::uint64_t v = 0;
  for (const Span& s : spans) {
    if (name == s.name) v += s.value;
  }
  return v;
}

void print_self_time_table(const std::vector<Span>& spans, double wall_ms, std::FILE* out) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].end_ns - spans[i].start_ns;
  for (const Span& s : spans) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  }
  struct Row {
    std::uint64_t calls = 0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> layers;
  std::map<std::string, Row> names;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double ms = static_cast<double>(self[i]) / 1e6;
    Row& l = layers[std::string(layer_of(spans[i].name))];
    ++l.calls;
    l.self_ms += ms;
    Row& n = names[spans[i].name];
    ++n.calls;
    n.self_ms += ms;
  }
  std::fprintf(out, "self time per layer (traced wall %.1f ms, %zu spans)\n", wall_ms,
               spans.size());
  std::fprintf(out, "  %-32s %10s %12s %8s\n", "layer / span", "calls", "self ms", "share");
  for (const auto& [layer, row] : layers) {
    std::fprintf(out, "  %-32s %10llu %12.2f %7.1f%%\n", layer.c_str(),
                 static_cast<unsigned long long>(row.calls), row.self_ms,
                 wall_ms > 0 ? 100.0 * row.self_ms / wall_ms : 0.0);
    for (const auto& [name, nrow] : names) {
      if (layer_of(name.c_str()) != layer) continue;
      std::fprintf(out, "    %-30s %10llu %12.2f %7.1f%%\n", name.c_str(),
                   static_cast<unsigned long long>(nrow.calls), nrow.self_ms,
                   wall_ms > 0 ? 100.0 * nrow.self_ms / wall_ms : 0.0);
    }
  }
}

bool write_chrome_trace(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans.empty() ? 0 : std::min_element(spans.begin(), spans.end(),
                                                               [](const Span& a, const Span& b) {
                                                                 return a.start_ns < b.start_ns;
                                                               })->start_ns;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                 "\"parent\": %d, \"id\": %llu, \"value\": %llu}}",
                 i > 0 ? ",\n" : "", s.name, static_cast<int>(layer_of(s.name).size()),
                 s.name, s.thread, static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.value));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace pb::spans
