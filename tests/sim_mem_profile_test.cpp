#include "sim/mem_profile.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "net/network.hpp"
#include "sim/sharded_backend.hpp"

namespace tussle {
namespace {

net::Address addr(net::AsId as, std::uint32_t sub, std::uint32_t host) {
  return net::Address{.provider = as, .subscriber = sub, .host = host};
}

/// Three ASes in a line, one node each:
///   A(AS1) --1ms-- B(AS2) --2ms-- C(AS3)
/// Every packet crosses two owners, so under the sharded backend its
/// propagate events ride the barrier inboxes. `shards` = 0 runs the serial
/// backend, k > 0 the sharded one with k workers.
struct ThreeAsChain {
  sim::Simulator sim;
  net::Network net{sim};
  net::NodeId a = 0, b = 0, c = 0;
  int delivered = 0;
  bool doomed_fired = false;
  bool cancel_ok = false;

  explicit ThreeAsChain(std::size_t shards) {
    if (shards > 0) sim.set_backend(std::make_unique<sim::ShardedBackend>(sim, shards));
    a = net.add_node(1);
    b = net.add_node(2);
    c = net.add_node(3);
    net.connect(a, b, 10e6, sim::Duration::millis(1));
    net.connect(b, c, 10e6, sim::Duration::millis(2));
    net.node(a).add_address(addr(1, 1, 1));
    net.node(c).add_address(addr(3, 1, 1));
    net.node(a).forwarding().set_default_route(0);
    net.node(b).forwarding().set_default_route(1);
    net.node(c).forwarding().set_default_route(0);
    net.node(c).set_local_handler([this](const net::Packet&) { ++delivered; });
  }

  /// Schedules `packets` sends from A. Each send also arms a timeout on
  /// A's own queue and cancels it 1 ms later from A: a same-owner cancel,
  /// the only kind the sharded backend honours.
  void inject(int packets) {
    for (int i = 0; i < packets; ++i) {
      sim.schedule_for(1, sim::Duration::millis(1 + i), sim::TaskTag{"test", "inject"}, [this] {
        net::Packet p;
        p.src = addr(1, 1, 1);
        p.dst = addr(3, 1, 1);
        p.proto = net::AppProto::kWeb;
        p.size_bytes = 1000;
        net.node(a).originate(std::move(p));
        const sim::EventId doomed =
            sim.schedule(sim::Duration::millis(50), sim::TaskTag{"test", "timeout"},
                         [this] { doomed_fired = true; });
        sim.schedule(sim::Duration::millis(1), sim::TaskTag{"test", "ack"},
                     [this, doomed] { cancel_ok = sim.cancel(doomed); });
      });
    }
  }
};

TEST(MemProfile, GoldenThreeAsChain) {
  ThreeAsChain t(/*shards=*/0);
  sim::MemProfiler mem;
  t.sim.set_mem_profiler(&mem);
  t.inject(1);
  t.sim.run();
  ASSERT_EQ(t.delivered, 1);
  // inject, timeout, ack, then serialize + propagate on each of two hops.
  EXPECT_EQ(mem.events_scheduled(), 7u);
  EXPECT_EQ(mem.events_cancelled(), 1u);
  EXPECT_EQ(t.sim.events_executed(), 6u);  // everything but the timeout
}

TEST(MemProfile, CancelledEventIsCounted) {
  sim::Simulator sim;
  sim::MemProfiler mem;
  sim.set_mem_profiler(&mem);
  bool fired = false;
  const sim::EventId id = sim.schedule_at(sim::SimTime::millis(5), [&fired] { fired = true; });
  bool again = true;
  sim.schedule_at(sim::SimTime::millis(2), [&] {
    sim.cancel(id);
    again = sim.cancel(id);  // already cancelled: not a second cancel
  });
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(again);
  EXPECT_EQ(mem.events_scheduled(), 2u);
  EXPECT_EQ(mem.events_cancelled(), 1u);
}

TEST(MemProfile, CountsStartAtAttachment) {
  for (const std::size_t shards : {0, 2}) {
    SCOPED_TRACE(shards);
    sim::Simulator sim;
    if (shards > 0) sim.set_backend(std::make_unique<sim::ShardedBackend>(sim, shards));
    sim.register_owner(1);
    sim.register_owner(2);
    const sim::EventId early =
        sim.schedule_for(1, sim::Duration::millis(4), sim::TaskTag{}, [] {});
    sim.schedule_for(2, sim::Duration::millis(1), sim::TaskTag{}, [] {});
    sim.schedule_for(2, sim::Duration::millis(2), sim::TaskTag{}, [] {});

    sim::MemProfiler mem;
    sim.set_mem_profiler(&mem);
    sim.schedule_for(1, sim::Duration::millis(3), sim::TaskTag{}, [] {});
    ASSERT_TRUE(sim.cancel(early));  // scheduled before attaching, cancelled after
    EXPECT_EQ(mem.events_scheduled(), 1u);
    EXPECT_EQ(mem.events_cancelled(), 1u);
    EXPECT_EQ(sim.run(), 3u);
    EXPECT_EQ(mem.events_scheduled(), 1u);
  }
}

TEST(MemProfile, CountsEqualAcrossShards) {
  auto counts = [](std::size_t shards) {
    ThreeAsChain t(shards);
    sim::MemProfiler mem;
    t.sim.set_mem_profiler(&mem);
    t.inject(5);
    t.sim.run();
    EXPECT_EQ(t.delivered, 5);
    EXPECT_TRUE(t.cancel_ok);
    EXPECT_FALSE(t.doomed_fired);
    return std::pair{mem.events_scheduled(), mem.events_cancelled()};
  };
  const auto serial = counts(0);
  EXPECT_EQ(serial.first, 35u);
  EXPECT_EQ(serial.second, 5u);
  EXPECT_EQ(counts(1), serial);
  EXPECT_EQ(counts(4), serial);
}

TEST(MemProfile, DetachedProfilerStaysInert) {
  for (const std::size_t shards : {0, 1, 4}) {
    SCOPED_TRACE(shards);
    ThreeAsChain with(shards);
    ThreeAsChain without(shards);
    sim::MemProfiler mem;
    sim::MemProfiler detached;
    with.sim.set_mem_profiler(&mem);
    without.sim.set_mem_profiler(&detached);
    without.sim.set_mem_profiler(nullptr);
    with.inject(5);
    without.inject(5);
    EXPECT_EQ(with.sim.run(), without.sim.run());
    EXPECT_EQ(with.delivered, without.delivered);
    EXPECT_EQ(with.sim.now(), without.sim.now());
    const net::NetCounters& cw = std::as_const(with.net).counters();
    const net::NetCounters& co = std::as_const(without.net).counters();
    EXPECT_EQ(cw.originated.value(), co.originated.value());
    EXPECT_EQ(cw.forwarded.value(), co.forwarded.value());
    EXPECT_EQ(cw.delivery_latency_s.mean(), co.delivery_latency_s.mean());
    EXPECT_GT(mem.events_scheduled(), 0u);
    EXPECT_EQ(detached.events_scheduled(), 0u);
  }
}

TEST(MemProfile, MergeIsAssociative) {
  auto make = [](int schedules, int cancels) {
    sim::MemProfiler m;
    for (int i = 0; i < schedules; ++i) m.on_schedule();
    for (int i = 0; i < cancels; ++i) m.on_cancel();
    return m;
  };
  sim::MemProfiler left = make(3, 1);  // (a + b) + c
  left.merge(make(5, 2));
  left.merge(make(2, 0));
  sim::MemProfiler bc = make(5, 2);  // a + (b + c)
  bc.merge(make(2, 0));
  sim::MemProfiler right = make(3, 1);
  right.merge(bc);
  EXPECT_EQ(left.events_scheduled(), 10u);
  EXPECT_EQ(left.events_cancelled(), 3u);
  EXPECT_EQ(right.events_scheduled(), left.events_scheduled());
  EXPECT_EQ(right.events_cancelled(), left.events_cancelled());
}

}  // namespace
}  // namespace tussle
