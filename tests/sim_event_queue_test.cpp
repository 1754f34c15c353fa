#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <memory>
#include <vector>

namespace tussle::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(SimTime::millis(30), [&] { fired.push_back(3); });
  q.push(SimTime::millis(10), [&] { fired.push_back(1); });
  q.push(SimTime::millis(20), [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  const SimTime t = SimTime::millis(5);
  for (int i = 0; i < 10; ++i) q.push(t, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PopReportsScheduledTime) {
  EventQueue q;
  q.push(SimTime::millis(7), [] {});
  EXPECT_EQ(q.next_time(), SimTime::millis(7));
  auto popped = q.pop();
  EXPECT_EQ(popped.time, SimTime::millis(7));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  EventId id = q.push(SimTime::millis(1), [&] { ++fired; });
  q.push(SimTime::millis(2), [&] { fired += 10; });
  EXPECT_TRUE(q.cancel(id));
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, 10);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  EventId id = q.push(SimTime::millis(1), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
  EXPECT_FALSE(q.cancel(EventId{12345}));
}

TEST(EventQueue, CancelledHeadDoesNotBlockNext) {
  EventQueue q;
  int fired = 0;
  EventId head = q.push(SimTime::millis(1), [&] { fired = 1; });
  q.push(SimTime::millis(2), [&] { fired = 2; });
  q.cancel(head);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.next_time(), SimTime::millis(2));
  q.pop().action();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeExcludesCancelled) {
  EventQueue q;
  EventId a = q.push(SimTime::millis(1), [] {});
  q.push(SimTime::millis(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, ManyEventsStaySorted) {
  EventQueue q;
  // Adversarial insertion order: descending times.
  for (int i = 999; i >= 0; --i) q.push(SimTime::micros(i), [] {});
  SimTime prev = SimTime::zero();
  while (!q.empty()) {
    auto p = q.pop();
    EXPECT_GE(p.time, prev);
    prev = p.time;
  }
}

TEST(EventQueue, MoveOnlyCaptureRuns) {
  EventQueue q;
  int seen = 0;
  auto owned = std::make_unique<int>(42);
  q.push(SimTime::millis(1), [&seen, p = std::move(owned)] { seen = *p; });
  q.pop().action();
  EXPECT_EQ(seen, 42);
}

TEST(EventQueue, CancelReleasesCapturedStateImmediately) {
  EventQueue q;
  auto state = std::make_shared<int>(7);
  const EventId first = q.push(SimTime::millis(1), [state] { (void)state; });
  std::array<char, 100> pad{};
  const EventId second = q.push(SimTime::millis(2), [state, pad] { (void)pad; });
  q.push(SimTime::millis(3), [] {});
  EXPECT_EQ(state.use_count(), 3);
  EXPECT_TRUE(q.cancel(first));
  EXPECT_EQ(state.use_count(), 2);  // at cancel, not when the key is popped
  EXPECT_TRUE(q.cancel(second));
  EXPECT_EQ(state.use_count(), 1);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().time, SimTime::millis(3));
  EXPECT_TRUE(q.empty());
}

// Counts destructions of the one live instance; moved-from shells don't count.
struct DestroyCounter {
  int* destroyed;
  bool live = true;
  explicit DestroyCounter(int* d) : destroyed(d) {}
  DestroyCounter(DestroyCounter&& o) noexcept : destroyed(o.destroyed), live(o.live) {
    o.live = false;
  }
  DestroyCounter(const DestroyCounter&) = delete;
  ~DestroyCounter() {
    if (live) ++*destroyed;
  }
};

TEST(EventQueue, OversizedClosureTakesHeapFallbackOnce) {
  int ran = 0;
  int destroyed = 0;
  {
    EventQueue q;
    std::array<char, Callback::kCapacity + 8> big{};
    big[0] = 1;
    Callback cb([&ran, big, c = DestroyCounter(&destroyed)] { ran += big[0]; });
    EXPECT_TRUE(cb.on_heap());
    q.push(SimTime::millis(1), std::move(cb));
    EXPECT_EQ(destroyed, 0);
    auto ev = q.pop();
    EXPECT_TRUE(ev.action.on_heap());
    ev.action();
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);

  // Cancelling an oversized closure frees its heap block exactly once too.
  {
    EventQueue q;
    std::array<char, Callback::kCapacity + 8> big{};
    const EventId id =
        q.push(SimTime::millis(1), [big, c = DestroyCounter(&destroyed)] { (void)big; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_EQ(destroyed, 2);
  }
  EXPECT_EQ(destroyed, 2);
}

TEST(EventQueue, SameTimeOrderSurvivesSlotReuse) {
  // Interleaved push / cancel / pop at one instant, mixing closure sizes:
  // every pop must return the earliest-scheduled surviving event, however
  // often the slots underneath have been recycled.
  EventQueue q;
  const SimTime t = SimTime::millis(1);
  std::deque<int> oracle;  // surviving labels in schedule order
  std::vector<std::pair<EventId, int>> live;
  std::vector<int> fired;
  std::array<char, 120> pad{};
  int label = 0;
  for (int round = 0; round < 400; ++round) {
    for (int k = 0; k < 5; ++k, ++label) {
      const EventId id = (label % 3 == 0)
                             ? q.push(t, [&fired, label, pad] { fired.push_back(label + pad[0]); })
                             : q.push(t, [&fired, label] { fired.push_back(label); });
      oracle.push_back(label);
      live.emplace_back(id, label);
    }
    // Cancel one of the pending events, chosen by a fixed stride.
    const std::size_t victim = static_cast<std::size_t>(round * 7) % live.size();
    ASSERT_TRUE(q.cancel(live[victim].first));
    std::erase(oracle, live[victim].second);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    // Pop three (fewer than pushed, so the pending set keeps growing).
    for (int k = 0; k < 3 && !q.empty(); ++k) {
      auto ev = q.pop();
      ev.action();
      ASSERT_EQ(fired.back(), oracle.front());
      std::erase_if(live, [&](const auto& e) { return e.second == oracle.front(); });
      oracle.pop_front();
    }
  }
  while (!q.empty()) {
    q.pop().action();
    ASSERT_EQ(fired.back(), oracle.front());
    oracle.pop_front();
  }
  EXPECT_TRUE(oracle.empty());
}

TEST(EventQueue, TagsTravelWithTheirEvents) {
  EventQueue q;
  q.push(SimTime::millis(2), [] {}, TaskTag{"b", "second"});
  q.push(SimTime::millis(1), [] {}, TaskTag{"a", "first"});
  q.push(SimTime::millis(3), [] {});
  auto first = q.pop();
  EXPECT_STREQ(first.tag.kind, "first");
  EXPECT_EQ(first.id, (EventId{2}));
  EXPECT_STREQ(q.pop().tag.kind, "second");
  EXPECT_EQ(q.pop().tag.kind, nullptr);
}

}  // namespace
}  // namespace tussle::sim
