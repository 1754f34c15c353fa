// Schedule/cancel counter.
//
// Counts the events a simulator schedules and the pending events it
// cancels, from the moment the counter is attached
// (Simulator::set_mem_profiler) on. Memory itself is measured, not
// modelled: real allocations per event and peak RSS come from tnbench
// (`allocs_per_unit`, `peak_rss_mb`).
//
// Determinism: the sharded backend gives each owner its own counter lane
// and merges the lanes into the attached counter at the end of run(), so
// the totals are equal at serial execution and at any --shards. A
// detached counter costs one null-pointer branch per schedule and per
// successful cancel.
#pragma once

#include <cstdint>

namespace tussle::sim {

class MemProfiler {
 public:
  /// An event was scheduled (cross-owner events count once, when their
  /// destination enqueues them at the window barrier).
  void on_schedule() noexcept { ++scheduled_; }
  /// A pending event was cancelled before it fired.
  void on_cancel() noexcept { ++cancelled_; }

  std::uint64_t events_scheduled() const noexcept { return scheduled_; }
  std::uint64_t events_cancelled() const noexcept { return cancelled_; }

  /// Adds another counter's totals to this one.
  void merge(const MemProfiler& other) noexcept {
    scheduled_ += other.scheduled_;
    cancelled_ += other.cancelled_;
  }

 private:
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
};

}  // namespace tussle::sim
