#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace tussle::sim {

std::uint32_t EventQueue::Pool::store(Action&& action, TaskTag tag) {
  if (free.empty()) {
    free.push_back(static_cast<std::uint32_t>(slots.size()));
    slots.emplace_back();
  }
  const std::uint32_t i = free.back();
  free.pop_back();
  slots[i].action = std::move(action);
  slots[i].tag = tag;
  return i;
}

EventId EventQueue::push(SimTime at, Action&& action, TaskTag tag) {
  assert(action);
  const EventId id{id_base_ + next_seq_ + 1};  // ids start at 1 so {} is "no event"
  const Key k{at, next_seq_, pool_.store(std::move(action), tag), false};
  ++next_seq_;
  heap_.push_back(k);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return id;
}

bool EventQueue::cancel(EventId id) {
  if (id.value <= id_base_ || id.value - id_base_ > next_seq_) return false;
  const std::uint64_t seq = id.value - id_base_ - 1;
  for (Key& k : heap_) {
    if (k.seq != seq) continue;
    if (k.cancelled) return false;
    k.cancelled = true;
    ++cancelled_;
    pool_.discard(k.slot);
    return true;
  }
  return false;
}

void EventQueue::drop_cancelled_top() const {
  while (!heap_.empty() && heap_.front().cancelled) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --cancelled_;
  }
}

SimTime EventQueue::next_time() const {
  drop_cancelled_top();
  assert(!heap_.empty());
  return heap_.front().time;
}

EventQueue::Popped EventQueue::pop() {
  drop_cancelled_top();
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key k = heap_.back();
  heap_.pop_back();
  const EventId id{id_base_ + k.seq + 1};
  auto& s = pool_.release(k.slot);
  return Popped{k.time, std::move(s.action), s.tag, id};
}

}  // namespace tussle::sim
