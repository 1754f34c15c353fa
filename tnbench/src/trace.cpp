#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace tnbench {
namespace {

struct ThreadBuf {
  std::uint32_t thread = 0;
  std::uint32_t run = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::size_t> open;  ///< indexes into spans, innermost last
  std::map<std::string, Aggregate> aggregates;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::mutex g_mu;  // guards g_bufs and g_attributed
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;
std::map<std::uint64_t, std::vector<std::pair<std::string, double>>> g_attributed;

ThreadBuf& buf() {
  thread_local ThreadBuf* tb = [] {
    std::lock_guard<std::mutex> lock(g_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    g_bufs.back()->thread = static_cast<std::uint32_t>(g_bufs.size() - 1);
    return g_bufs.back().get();
  }();
  return *tb;
}

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

}  // namespace

double now_s() noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool Trace::enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }
void Trace::set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

std::uint64_t Trace::begin(const char* name, std::uint64_t parent) {
  ThreadBuf& b = buf();
  SpanRecord r;
  r.name = name;
  r.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  r.parent = parent != 0 ? parent : (b.open.empty() ? 0 : b.spans[b.open.back()].id);
  r.run = b.run;
  r.thread = b.thread;
  b.open.push_back(b.spans.size());
  b.spans.push_back(r);
  b.spans.back().t0 = now_s();
  return r.id;
}

void Trace::end(std::uint64_t id) {
  const double t = now_s();
  ThreadBuf& b = buf();
  if (b.open.empty() || b.spans[b.open.back()].id != id) {
    throw std::logic_error("tnbench trace: spans must close innermost first");
  }
  SpanRecord& r = b.spans[b.open.back()];
  r.t1 = t;
  Aggregate& a = b.aggregates[r.name];
  a.seconds += r.t1 - r.t0;
  a.count += 1;
  b.open.pop_back();
}

void Trace::set_run(std::uint32_t run) noexcept { buf().run = run; }

void Trace::add(const char* name, double seconds, std::uint64_t count) {
  Aggregate& a = buf().aggregates[name];
  a.seconds += seconds;
  a.count += count;
}

std::map<std::string, Aggregate> Trace::take_aggregates() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, Aggregate> out;
  for (auto& b : g_bufs) {
    for (const auto& [name, a] : b->aggregates) {
      out[name].seconds += a.seconds;
      out[name].count += a.count;
    }
    b->aggregates.clear();
  }
  return out;
}

void Trace::attribute(std::uint64_t id, const std::string& layer, double seconds) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_attributed[id].emplace_back(layer, seconds);
}

std::vector<SpanRecord> Trace::spans() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<SpanRecord> out;
  for (const auto& b : g_bufs) {
    for (const SpanRecord& r : b->spans) {
      if (r.t1 >= 0) out.push_back(r);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return out;
}

std::map<std::string, double> Trace::self_times(const char* root) {
  const std::vector<SpanRecord> all = spans();
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < all.size(); ++i) index[all[i].id] = i;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent != 0) children[all[i].parent].push_back(i);
  }
  // Parents open before their children, so ids increase down every chain
  // and one pass in id order resolves each span's outermost ancestor.
  std::vector<std::size_t> top(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    auto p = index.find(all[i].parent);
    top[i] = p == index.end() ? i : top[p->second];
  }
  std::map<std::string, double> out;
  std::lock_guard<std::mutex> lock(g_mu);
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (std::string(all[top[i]].name) != root) continue;
    const SpanRecord& s = all[i];
    std::vector<std::pair<double, double>> iv;
    for (std::size_t c : children[s.id]) {
      iv.emplace_back(std::max(all[c].t0, s.t0), std::min(all[c].t1, s.t1));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, reach = s.t0;
    for (const auto& [a, b] : iv) {
      const double lo = std::max(a, reach);
      if (b > lo) covered += b - lo;
      reach = std::max(reach, b);
    }
    double self = (s.t1 - s.t0) - covered;
    auto at = g_attributed.find(s.id);
    if (at != g_attributed.end()) {
      for (const auto& [layer, secs] : at->second) {
        out[layer] += secs;
        self -= secs;
      }
    }
    out[layer_of(s.name)] += self;
  }
  return out;
}

bool Trace::write(const std::string& prefix) {
  std::FILE* f = std::fopen((prefix + ".jsonl").c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& r : spans()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"run\":%u,\"thread\":%u,"
                 "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                 r.name, static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent), r.run, r.thread, r.t0, r.t1);
  }
  std::fclose(f);
  f = std::fopen((prefix + ".selftime.txt").c_str(), "w");
  if (f == nullptr) return false;
  // Shares are of the phase's wall time; layers running on several
  // threads at once (model-sweep, flood-sharded) can sum past 100%.
  std::fprintf(f, "%-6s %-10s %14s %9s\n", "phase", "layer", "self_s", "of_wall");
  const std::vector<SpanRecord> all = spans();
  for (const char* root : {"bench.setup", "bench.timed"}) {
    double wall = 0;
    for (const SpanRecord& r : all) {
      if (std::string(r.name) == root) wall += r.t1 - r.t0;
    }
    const char* phase = root + 6;  // drop "bench."
    std::fprintf(f, "%-6s %-10s %14.6f %8.2f%%\n", phase, "(wall)", wall, 100.0);
    for (const auto& [layer, secs] : self_times(root)) {
      std::fprintf(f, "%-6s %-10s %14.6f %8.2f%%\n", phase, layer.c_str(), secs,
                   wall > 0 ? 100.0 * secs / wall : 0.0);
    }
  }
  std::fclose(f);
  return true;
}

}  // namespace tnbench
