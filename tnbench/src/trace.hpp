// Benchmark-side span tracing.
//
// The traced run records a span around every call the benchmark makes into a
// tussle_* layer (name "<layer>.<call>", start, end, parent span, run id).
// Spans live in per-thread buffers and are written out when the run ends.
// Hot calls made from inside the event loop (policy evaluation, app
// dispatch, FIB writes) are too frequent for one span each; they are timed
// into per-thread aggregates instead, and the loop's own split comes from
// sim::LoopProfiler. attribute() hands those seconds from the enclosing
// span's self time to the layer that spent them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tnbench {

/// Seconds on the monotonic clock.
double now_s() noexcept;

struct SpanRecord {
  const char* name = nullptr;  ///< string literal "<layer>.<call>"
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t run = 0;
  std::uint32_t thread = 0;
  double t0 = 0;
  double t1 = -1;
};

struct Aggregate {
  double seconds = 0;
  std::uint64_t count = 0;
};

class Trace {
 public:
  static bool enabled() noexcept;
  static void set_enabled(bool on) noexcept;

  /// Opens a span under the calling thread's innermost open span, or under
  /// `parent` when it is nonzero (a sweep body on a worker thread names the
  /// run_sweep span that caused it).
  static std::uint64_t begin(const char* name, std::uint64_t parent = 0);
  static void end(std::uint64_t id);
  /// Run id stamped on the calling thread's subsequent spans.
  static void set_run(std::uint32_t run) noexcept;

  /// Adds one timed call to the calling thread's aggregate `name`. Every
  /// closed span also adds its duration to the aggregate of its name.
  static void add(const char* name, double seconds, std::uint64_t count = 1);
  /// Sums every thread's aggregates and clears them.
  static std::map<std::string, Aggregate> take_aggregates();

  /// Moves `seconds` of span `id`'s self time to `layer`.
  static void attribute(std::uint64_t id, const std::string& layer, double seconds);

  /// Every closed span so far, all threads, ordered by id.
  static std::vector<SpanRecord> spans();

  /// Per-layer self time, summed over every span whose outermost ancestor
  /// is named `root`. Self time = duration minus the part of the interval
  /// covered by child spans (on any thread), minus attributed seconds,
  /// which count for their own layer instead. Layers are name prefixes.
  static std::map<std::string, double> self_times(const char* root);

  /// Writes spans as JSON lines and the per-layer self-time table
  /// (set-up and timed phases) under `prefix`.jsonl / `prefix`.selftime.txt.
  static bool write(const std::string& prefix);
};

/// RAII span; free when tracing is off.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t parent = 0)
      : id_(Trace::enabled() ? Trace::begin(name, parent) : 0) {}
  ~Span() {
    if (id_ != 0) Trace::end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const noexcept { return id_; }

 private:
  std::uint64_t id_;
};

/// Times one call into an aggregate when tracing is on.
template <typename F>
decltype(auto) timed(const char* name, F&& f) {
  if (!Trace::enabled()) return f();
  struct Stop {
    const char* name;
    double t0;
    ~Stop() { Trace::add(name, now_s() - t0); }
  } stop{name, now_s()};
  return f();
}

}  // namespace tnbench
