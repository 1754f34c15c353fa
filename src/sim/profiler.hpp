// Event-loop profiler and heartbeat support (in the style of Shadow's
// host-tracker): where does simulated work actually spend wall-clock time?
//
// Call sites label their scheduled events with a TaskTag (two static
// string literals: component and event kind). When a profiler is attached
// to a Simulator, every dispatched event is attributed to its tag with a
// count and wall-clock duration; hotspot reports rank (component, kind)
// cells by time. Profiling is off by default: an un-attached simulator
// pays one branch per event, and wall-clock time is only ever *reported*,
// never fed back into simulation decisions, so attaching the profiler
// cannot perturb bit-exact replay.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tussle::sim {

/// Monotonic process time in seconds. Observability only — results must
/// never influence event ordering or any simulated outcome.
double wall_now_seconds() noexcept;

/// Label for a scheduled event. Both pointers must be string literals (or
/// otherwise outlive the simulation); the default tag is "(untagged)".
struct TaskTag {
  const char* component = nullptr;
  const char* kind = nullptr;
};

class Callback;

class LoopProfiler {
 public:
  struct Hotspot {
    std::string component;
    std::string kind;
    std::uint64_t events = 0;
    double wall_seconds = 0;
    double share = 0;  ///< fraction of total profiled wall time
  };

  /// Attributes one dispatched event. Called by the Simulator dispatch
  /// loop; the (component, kind) cell is found by scanning a small vector
  /// of previously-seen tags — tag sets are tiny (tens), and pointer
  /// comparison keeps the hot path allocation-free.
  void record(const TaskTag& tag, double wall_seconds) noexcept;

  /// Runs `action` and records its wall time under `tag`. Out of line so
  /// the untimed branch of every dispatch loop stays small.
  void timed(const TaskTag& tag, Callback& action);

  std::uint64_t total_events() const noexcept { return total_events_; }
  double total_wall_seconds() const noexcept { return total_wall_; }

  /// Top `k` cells by wall time (ties broken by name, so output is stable).
  std::vector<Hotspot> hotspots(std::size_t k = 10) const;

  /// Renders `hotspots(k)` as a JSON array of objects.
  std::string hotspots_json(std::size_t k = 10) const;

  /// Fixed-width human report, one line per hotspot.
  std::string report(std::size_t k = 10) const;

  /// Folds another profiler's cells into this one (the sweep engine
  /// profiles each run separately and merges in run-index order). Tags are
  /// string literals, so cells match by pointer first, then by content.
  void merge(const LoopProfiler& other);

  void reset() noexcept;

 private:
  struct Cell {
    const char* component = nullptr;
    const char* kind = nullptr;
    std::uint64_t events = 0;
    double wall = 0;
  };

  std::vector<Cell> cells_;
  std::uint64_t total_events_ = 0;
  double total_wall_ = 0;
};

}  // namespace tussle::sim
