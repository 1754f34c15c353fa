// Pending-event set for the discrete-event engine.
//
// A binary heap of compact (time, sequence, slot) keys. The sequence number
// breaks ties in insertion order, so two events scheduled for the same
// instant fire in the order they were scheduled — a property several
// protocol models (and the determinism tests) depend on.
//
// Closures never sit in the heap: each pending event's Callback and TaskTag
// live in a slot of a recycled pool, and the heap sifts only the 24-byte
// keys. Once the pool has grown to the run's peak pending count,
// push/pop/cancel never touch the allocator (closures over Callback's
// inline capacity still take its heap fallback).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/callback.hpp"
#include "sim/profiler.hpp"
#include "sim/time.hpp"

namespace tussle::sim {

/// Opaque handle identifying a scheduled event, usable to cancel it.
struct EventId {
  std::uint64_t value = 0;
  friend bool operator==(EventId, EventId) = default;
};

class EventQueue {
 public:
  using Action = Callback;

  EventQueue() = default;

  // The queue owns callbacks that may capture anything; copying the queue
  // would duplicate scheduled side effects, so it is move-only.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  EventQueue(EventQueue&&) = default;
  EventQueue& operator=(EventQueue&&) = default;

  /// Schedules `action` to fire at absolute time `at`. `tag` labels the
  /// event for the observability hooks and is returned by pop().
  EventId push(SimTime at, Action&& action, TaskTag tag = {});

  /// Offsets every EventId this queue hands out by `base` (ids become
  /// base + seq + 1). The sharded execution backend runs one queue per
  /// owner and needs ids from different queues to stay distinguishable so
  /// cancel() can be routed; the default base of 0 keeps serial ids
  /// exactly as before. Must be set before the first push.
  void set_id_base(std::uint64_t base) noexcept { id_base_ = base; }
  std::uint64_t id_base() const noexcept { return id_base_; }

  /// Cancels a pending event. Returns false if the event already fired,
  /// was cancelled before, or never existed. Finding the event is a linear
  /// scan of the pending keys; the captured state is destroyed and the slot
  /// recycled at once, and the marked key is discarded lazily when it
  /// reaches the heap top.
  bool cancel(EventId id);

  bool empty() const noexcept { return size() == 0; }
  std::size_t size() const noexcept { return heap_.size() - cancelled_; }

  /// Earliest pending event time. Precondition: !empty().
  SimTime next_time() const;

  /// Removes and returns the earliest event's action, time, tag, and id.
  /// Precondition: !empty().
  struct Popped {
    SimTime time;
    Action action;
    TaskTag tag;
    EventId id;
  };
  Popped pop();

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    bool cancelled = false;  ///< closure destroyed, slot already recycled
  };
  static_assert(sizeof(Key) == 24);

  // Min-heap comparison (std::push_heap builds a max-heap, so invert).
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  struct Slot {
    Action action;
    TaskTag tag;
  };

  /// A recycled slot pool: slots are reused through the free list and the
  /// vector only grows when every slot is pending.
  struct Pool {
    std::vector<Slot> slots;
    std::vector<std::uint32_t> free;

    /// Moves `action` into a free slot; returns the slot index.
    std::uint32_t store(Action&& action, TaskTag tag);
    /// Frees slot `i` and returns it; the caller moves the action out
    /// before the next store().
    Slot& release(std::uint32_t i) {
      free.push_back(i);
      return slots[i];
    }
    /// Destroys slot `i`'s action now and frees the slot.
    void discard(std::uint32_t i) { release(i).action.reset(); }
  };

  void drop_cancelled_top() const;

  // mutable: cancelled keys are discarded lazily, so logically-const
  // observers (next_time) compact the heap as a side effect.
  mutable std::vector<Key> heap_;
  mutable std::size_t cancelled_ = 0;  ///< cancelled keys still in heap_
  Pool pool_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t id_base_ = 0;
};

}  // namespace tussle::sim
