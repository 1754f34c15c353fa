// ShardedBackend: the conservative barrier-synchronized PDES engine.
//
// The determinism contract under test: per-owner event order (and
// therefore every per-owner observable) is a pure function of the
// simulation, not of the shard count — byte-identical at k = 1, 2, 3, 8.
// Plus the edge cases the window machinery must survive: zero-latency
// lookahead (1 ns lockstep, not deadlock), lookahead undercuts (detected
// at the drain, at any k), control-only rounds, horizon/stop semantics,
// and the restricted cancellation surface.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "sim/exec_profile.hpp"
#include "sim/sharded_backend.hpp"
#include "sim/simulator.hpp"

namespace tussle::sim {
namespace {

ShardedBackend& install_sharded(Simulator& sim, std::size_t shards) {
  sim.set_backend(std::make_unique<ShardedBackend>(sim, shards));
  return dynamic_cast<ShardedBackend&>(sim.backend());
}

// Threads of this process, or 0 where /proc is not available.
std::size_t thread_count() {
  std::error_code ec;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end; !ec && it != end;
       it.increment(ec)) {
    ++n;
  }
  return n;
}

// One owner's execution log: (time ns, label). Each owner's log is only
// written by the worker that owns it, so logs need no locking.
using Log = std::vector<std::pair<std::int64_t, std::string>>;

TEST(ShardedBackend, SingleOwnerMatchesSerialOrder) {
  // With one owner and owner-directed scheduling only, the sharded engine
  // must reproduce the serial backend's (time, sequence) order exactly.
  auto drive = [](Simulator& sim) {
    Log log;
    for (int i = 0; i < 6; ++i) {
      sim.schedule_for(7, Duration::millis(3 - i % 3), TaskTag{"test", "seed"},
                       [&log, i, &sim] {
                         log.emplace_back(sim.now().as_nanos(), "a" + std::to_string(i));
                         // Follow-on from inside a worker event stays on the
                         // owner's queue.
                         sim.schedule(Duration::millis(1), TaskTag{"test", "child"},
                                      [&log, i, &sim] {
                                        log.emplace_back(sim.now().as_nanos(),
                                                         "b" + std::to_string(i));
                                      });
                       });
    }
    sim.run();
    return log;
  };

  Simulator serial(11);
  const Log expect = drive(serial);
  ASSERT_EQ(expect.size(), 12u);
  for (std::size_t k : {1u, 2u, 8u}) {
    Simulator sim(11);
    install_sharded(sim, k);
    EXPECT_EQ(drive(sim), expect) << "k=" << k;
  }
}

// A three-owner ring: every event draws from the owner's RNG stream and
// forwards work to the next owner one lookahead later. Exercises the
// outbox path, per-owner RNG lanes, and equal-latency links.
Log ring_scenario(std::size_t shards) {
  Simulator sim(42);
  ShardedBackend& sb = install_sharded(sim, shards);
  const ShardId owners[] = {3, 5, 9};
  for (ShardId o : owners) sim.register_owner(o);
  // Equal latencies on every edge: the window width is exactly 2 ms.
  for (int i = 0; i < 3; ++i) {
    sim.register_lookahead(owners[i], owners[(i + 1) % 3], Duration::millis(2));
  }
  EXPECT_EQ(sb.lookahead(), Duration::millis(2));

  Log logs[3];
  std::function<void(int, int)> hop = [&](int at_idx, int remaining) {
    logs[at_idx].emplace_back(
        sim.now().as_nanos(),
        "o" + std::to_string(owners[at_idx]) + ":" + std::to_string(sim.rng().next_u64() % 1000));
    if (remaining == 0) return;
    const int next = (at_idx + 1) % 3;
    sim.schedule_for(owners[next], Duration::millis(2), TaskTag{"test", "hop"},
                     [&hop, next, remaining] { hop(next, remaining - 1); });
  };
  for (int i = 0; i < 3; ++i) {
    sim.schedule_for(owners[i], Duration::millis(1 + i), TaskTag{"test", "start"},
                     [&hop, i] { hop(i, 7); });
  }
  EXPECT_EQ(sim.run(), 3u * 8u);

  Log merged;
  for (const Log& l : logs) merged.insert(merged.end(), l.begin(), l.end());
  return merged;
}

TEST(ShardedBackend, MultiOwnerDeterministicAcrossShardCounts) {
  const Log base = ring_scenario(1);
  ASSERT_EQ(base.size(), 24u);
  for (std::size_t k : {2u, 3u, 8u}) {
    EXPECT_EQ(ring_scenario(k), base) << "k=" << k;
  }
}

// Fan-in: 64 source owners each send kPerSink same-instant events to each
// of three sink owners, so one worker's outbox slot for a sink interleaves
// the messages of every source that worker ran. Sources start at two
// instants in setup (ascending owner) order, so the serial backend's FIFO
// order among equal times is the canonical (time, source, sequence) order.
// Returns each sink's arrival log; shards == 0 runs the serial backend.
std::vector<Log> fan_in_scenario(std::size_t shards, ExecProfiler* ep = nullptr) {
  constexpr int kPerSink = 4;
  Simulator sim(7);
  if (shards > 0) install_sharded(sim, shards);
  if (ep != nullptr) sim.set_exec_profiler(ep);
  // Owners 1..67; the sinks sit among the sources so they land on
  // different workers at every k.
  const ShardId sinks[] = {6, 34, 65};
  std::vector<ShardId> sources;
  for (ShardId o = 1; o <= 67; ++o) {
    sim.register_owner(o);
    if (o != sinks[0] && o != sinks[1] && o != sinks[2]) sources.push_back(o);
  }
  EXPECT_EQ(sources.size(), 64u);
  for (ShardId s : sources) {
    for (ShardId sink : sinks) sim.register_lookahead(s, sink, Duration::millis(2));
  }

  std::vector<Log> logs(3);
  for (ShardId s : sources) {
    const Duration start = Duration::micros(1000 + 100 * (s % 2));
    sim.schedule_for(s, start, TaskTag{"test", "fan"}, [&sim, &logs, &sinks, s] {
      for (int k = 0; k < 3; ++k) {
        for (int j = 0; j < kPerSink; ++j) {
          sim.schedule_for(sinks[k], Duration::millis(2), TaskTag{"test", "arrive"},
                           [&sim, &logs, k, s, j] {
                             logs[k].emplace_back(
                                 sim.now().as_nanos(),
                                 "s" + std::to_string(s) + "." + std::to_string(j));
                           });
        }
      }
    });
  }
  EXPECT_EQ(sim.run(), 64u * (1 + 3 * kPerSink));
  return logs;
}

std::map<std::pair<ShardId, ShardId>, std::uint64_t> volume_counts(const ExecProfiler& ep) {
  std::map<std::pair<ShardId, ShardId>, std::uint64_t> out;
  for (const auto& [key, v] : ep.volumes()) out[key] = v.events;
  return out;
}

TEST(ShardedBackend, FanInOrderIsCanonicalAcrossShardCounts) {
  const std::vector<Log> serial = fan_in_scenario(0);
  for (const Log& log : serial) {
    ASSERT_EQ(log.size(), 64u * 4u);
    // Sources at the earlier instant arrive first, in ascending owner order.
    EXPECT_EQ(log.front().second, "s2.0");
    EXPECT_EQ(log.back().second, "s67.3");
  }
  for (std::size_t k : {1u, 2u, 3u, 8u}) {
    EXPECT_EQ(fan_in_scenario(k), serial) << "k=" << k;
  }

  // Per-(src, dst) message volumes do not depend on how sources share a
  // worker's outbox slot.
  ExecProfiler one;
  ExecProfiler three;
  fan_in_scenario(1, &one);
  fan_in_scenario(3, &three);
  const auto vols = volume_counts(one);
  ASSERT_EQ(vols.size(), 64u * 3u);
  for (const auto& [key, n] : vols) EXPECT_EQ(n, 4u) << key.first << "->" << key.second;
  EXPECT_EQ(volume_counts(three), vols);
}

TEST(ShardedBackend, ZeroLatencyDegradesToLockstep) {
  // A zero-latency link clamps the lookahead to 1 ns: same-time cross-owner
  // hops each take one barrier round instead of deadlocking.
  Simulator sim(1);
  ShardedBackend& sb = install_sharded(sim, 2);
  sim.register_owner(1);
  sim.register_owner(2);
  sim.register_lookahead(1, 2, Duration::nanos(0));
  EXPECT_EQ(sb.lookahead(), Duration::nanos(1));

  int hops = 0;
  std::function<void(ShardId, int)> bounce = [&](ShardId at, int remaining) {
    ++hops;
    if (remaining == 0) return;
    const ShardId other = at == 1 ? 2 : 1;
    sim.schedule_for(other, Duration::nanos(0), TaskTag{"test", "bounce"},
                     [&bounce, other, remaining] { bounce(other, remaining - 1); });
  };
  sim.schedule_for(1, Duration::nanos(0), TaskTag{"test", "kick"},
                   [&bounce] { bounce(1, 5); });
  EXPECT_EQ(sim.run(), 6u);
  EXPECT_EQ(hops, 6);
  // Every same-time hop crossed a barrier: at least one window per hop.
  EXPECT_GE(sb.windows_run(), 5u);
  EXPECT_EQ(sim.now(), SimTime::nanos(0));
}

TEST(ShardedBackend, LookaheadUndercutThrowsAtAnyShardCount) {
  // Sending below the declared lookahead can land behind the destination's
  // clock. The drain detects it — deterministically, even at k = 1 where
  // no actual race exists.
  for (std::size_t k : {1u, 4u}) {
    Simulator sim(1);
    install_sharded(sim, k);
    sim.register_owner(1);
    sim.register_owner(2);
    sim.register_lookahead(1, 2, Duration::millis(1));
    // Destination executes its 600 us event inside the window [0, 1 ms);
    // the undercut arrival at 500 us is then in its past.
    sim.schedule_for(2, Duration::micros(600), TaskTag{"test", "dst"}, [] {});
    sim.schedule_for(1, Duration::nanos(0), TaskTag{"test", "src"}, [&sim] {
      sim.schedule_for(2, Duration::micros(500), TaskTag{"test", "undercut"}, [] {});
    });
    try {
      sim.run();
      ADD_FAILURE() << "no throw at k=" << k;
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("owner 1 sent an event for owner 2 at t=500000ns"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ShardedBackend, ControlOnlyRoundRunsOnCoordinator) {
  // Setup-context schedule() lands on the control queue; the control event
  // runs between windows and may inject owner work via schedule_for.
  Simulator sim(1);
  install_sharded(sim, 2);
  sim.register_owner(4);
  sim.register_owner(6);
  sim.register_lookahead(4, 6, Duration::millis(1));

  std::vector<std::string> order;
  bool control_ctx_flagged = false;
  sim.schedule(Duration::millis(5), TaskTag{"test", "control"}, [&] {
    const ExecCtx* c = current_exec_ctx();
    control_ctx_flagged = c != nullptr && c->control;
    order.push_back("control@" + std::to_string(sim.now().as_nanos()));
    sim.schedule_for(6, Duration::millis(2), TaskTag{"test", "injected"},
                     [&order, &sim] {
                       order.push_back("owner@" + std::to_string(sim.now().as_nanos()));
                     });
  });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_TRUE(control_ctx_flagged);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "control@5000000");
  EXPECT_EQ(order[1], "owner@7000000");
}

TEST(ShardedBackend, ControlOnlyRunOpensNoWindow) {
  // With no owner work the between-window step never publishes a window, so
  // run() executes the control queue on its own thread and starts no worker.
  Simulator sim(1);
  ShardedBackend& sb = install_sharded(sim, 4);
  sim.register_owner(1);
  sim.register_owner(2);
  sim.register_lookahead(1, 2, Duration::millis(1));
  std::vector<std::int64_t> fired;
  bool on_caller = true;
  const std::thread::id caller = std::this_thread::get_id();
  for (int i = 1; i <= 3; ++i) {
    sim.schedule(Duration::millis(i), TaskTag{"test", "control"}, [&] {
      fired.push_back(sim.now().as_nanos());
      on_caller = on_caller && std::this_thread::get_id() == caller;
    });
  }
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(sb.windows_run(), 0u);
  EXPECT_EQ(fired, (std::vector<std::int64_t>{1'000'000, 2'000'000, 3'000'000}));
  EXPECT_TRUE(on_caller);
  EXPECT_EQ(sim.now(), SimTime::millis(3));
}

TEST(ShardedBackend, ControlErrorAfterWindowsSurfacesFromRun) {
  // A control event that throws runs inside the barrier's completion step,
  // which must not throw: the step keeps the error, ends the run, and run()
  // rethrows it once every worker has joined.
  for (std::size_t k : {1u, 2u, 4u}) {
    Simulator sim(3);
    ShardedBackend& sb = install_sharded(sim, k);
    for (ShardId o = 1; o <= 4; ++o) sim.register_owner(o);
    sim.register_lookahead(1, 2, Duration::millis(1));
    std::vector<int> ran(5, 0);  // slot o is written only by owner o's worker
    int late = 0;
    for (ShardId o = 1; o <= 4; ++o) {
      for (int i = 1; i <= 3; ++i) {
        sim.schedule_for(o, Duration::millis(i), TaskTag{"test", "owner"},
                         [&ran, o] { ++ran[o]; });
      }
    }
    sim.schedule(Duration::micros(3500), TaskTag{"test", "boom"},
                 [] { throw std::runtime_error("control event failed"); });
    sim.schedule_for(1, Duration::millis(5), TaskTag{"test", "late"}, [&late] { ++late; });

    const std::size_t threads = thread_count();
    try {
      sim.run();
      ADD_FAILURE() << "no throw at k=" << k;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "control event failed") << "k=" << k;
    }
    EXPECT_EQ(thread_count(), threads) << "k=" << k;
    EXPECT_GE(sb.windows_run(), 1u) << "k=" << k;
    for (ShardId o = 1; o <= 4; ++o) EXPECT_EQ(ran[o], 3) << "k=" << k << " owner " << o;
    EXPECT_EQ(late, 0) << "k=" << k;

    // The backend is reusable: the next run picks up after the failed event.
    EXPECT_EQ(sim.run(), 1u) << "k=" << k;
    EXPECT_EQ(late, 1) << "k=" << k;
  }
}

TEST(ShardedBackend, ControlRunsBeforeSameTimeOwnerEvents) {
  Simulator sim(1);
  install_sharded(sim, 2);
  sim.register_owner(1);
  std::vector<std::string> order;
  sim.schedule_for(1, Duration::millis(3), TaskTag{"test", "owner"},
                   [&order] { order.push_back("owner"); });
  sim.schedule(Duration::millis(3), TaskTag{"test", "control"},
               [&order] { order.push_back("control"); });
  EXPECT_EQ(sim.run(), 2u);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "control");
  EXPECT_EQ(order[1], "owner");
}

TEST(ShardedBackend, HorizonAdvancesClockLikeSerial) {
  Simulator sim(1);
  install_sharded(sim, 2);
  sim.register_owner(1);
  sim.schedule_for(1, Duration::millis(2), TaskTag{"test", "only"}, [] {});
  EXPECT_EQ(sim.run(SimTime::millis(10)), 1u);
  EXPECT_EQ(sim.now(), SimTime::millis(10));  // horizon fill, as on serial

  // Events beyond the horizon stay pending.
  sim.schedule_for(1, Duration::millis(100), TaskTag{"test", "late"}, [] {});
  EXPECT_EQ(sim.run(SimTime::millis(20)), 0u);
  EXPECT_EQ(sim.now(), SimTime::millis(20));
  EXPECT_EQ(sim.events_pending(), 1u);
}

TEST(ShardedBackend, StopEndsRunAtWindowBoundary) {
  Simulator sim(1);
  install_sharded(sim, 2);
  sim.register_owner(1);
  sim.register_owner(2);
  sim.register_lookahead(1, 2, Duration::millis(1));
  std::size_t fired = 0;
  for (int i = 1; i <= 20; ++i) {
    const ShardId o = i % 2 ? 1 : 2;
    sim.schedule_for(o, Duration::millis(i), TaskTag{"test", "tick"}, [&] {
      ++fired;
      if (fired == 3) sim.stop();
    });
  }
  const std::size_t ran = sim.run();
  EXPECT_GE(ran, 3u);
  EXPECT_LT(ran, 20u);
  EXPECT_GT(sim.events_pending(), 0u);
}

TEST(ShardedBackend, CancellationIsOwnerLocal) {
  Simulator sim(1);
  install_sharded(sim, 2);
  sim.register_owner(1);
  sim.register_owner(2);
  sim.register_lookahead(1, 2, Duration::millis(1));

  // Setup context may cancel anything still queued.
  bool fired = false;
  const EventId direct =
      sim.schedule_for(1, Duration::millis(1), TaskTag{"test", "x"}, [&fired] { fired = true; });
  EXPECT_TRUE(sim.cancel(direct));
  EXPECT_FALSE(sim.cancel(direct));  // already gone

  bool own_cancel_ok = false;
  bool cross_cancel_refused = false;
  bool remote_id_flagged = false;
  sim.schedule_for(1, Duration::millis(2), TaskTag{"test", "worker"}, [&] {
    // Same-owner: schedule then cancel succeeds.
    const EventId mine =
        sim.schedule(Duration::millis(1), TaskTag{"test", "never"}, [] {});
    own_cancel_ok = sim.cancel(mine);
    // Cross-owner: the id is a synthetic remote handle; not cancellable.
    const EventId theirs = sim.schedule_for(2, Duration::millis(2),
                                            TaskTag{"test", "remote"}, [] {});
    remote_id_flagged = (theirs.value & ShardedBackend::kRemoteId) != 0;
    cross_cancel_refused = !sim.cancel(theirs);
  });
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(own_cancel_ok);
  EXPECT_TRUE(remote_id_flagged);
  EXPECT_TRUE(cross_cancel_refused);
}

TEST(ShardedBackend, StepThrows) {
  Simulator sim(1);
  install_sharded(sim, 2);
  EXPECT_THROW(sim.step(), std::logic_error);
}

TEST(ShardedBackend, SetBackendAfterSchedulingThrows) {
  Simulator sim(1);
  sim.schedule(Duration::millis(1), [] {});
  EXPECT_THROW(sim.set_backend(std::make_unique<ShardedBackend>(sim, 2)),
               std::logic_error);
}

TEST(ShardedBackend, RegisterOwnerMidRunThrows) {
  Simulator sim(1);
  install_sharded(sim, 1);
  sim.register_owner(1);
  sim.schedule_for(1, Duration::millis(1), TaskTag{"test", "x"},
                   [&sim] { sim.register_owner(99); });
  EXPECT_THROW(sim.run(), std::logic_error);
}

// End-to-end through the Network layer: packet delivery counts and latency
// stats must be identical at every shard count (counters accumulate in
// per-owner lanes and merge owner-ascending).
struct NetResult {
  std::int64_t originated = 0;
  std::int64_t delivered = 0;
  std::size_t events = 0;
  std::size_t received = 0;
};

NetResult net_scenario(std::size_t shards) {
  Simulator sim(7);
  if (shards > 0) install_sharded(sim, shards);
  net::Network net(sim);
  const net::NodeId a = net.add_node(1);
  const net::NodeId b = net.add_node(2);
  net.connect(a, b, 1e9, Duration::millis(1));
  const net::Address dst{2, 1, 1, false};
  net.node(b).add_address(dst);
  std::size_t received = 0;
  net.node(b).set_local_handler([&received](const net::Packet&) { ++received; });
  net.node(a).forwarding().set_prefix_route(net::prefix_of(dst),
                                            net.neighbors(a).at(0).second);
  for (int i = 0; i < 8; ++i) {
    sim.schedule_for(1, Duration::micros(100 * (i + 1)), TaskTag{"test", "probe"},
                     [&net, a, dst] {
                       net::Packet p;
                       p.src = net::Address{1, 1, 1, false};
                       p.dst = dst;
                       net.node(a).originate(p);
                     });
  }
  NetResult r;
  r.events = sim.run();
  r.originated = net.counters().originated.value();
  r.delivered = net.counters().delivered.value();
  r.received = received;
  return r;
}

TEST(ShardedBackend, NetworkDeliveryMatchesAcrossShardCounts) {
  const NetResult serial = net_scenario(0);
  EXPECT_EQ(serial.originated, 8);
  EXPECT_EQ(serial.delivered, 8);
  EXPECT_EQ(serial.received, 8u);
  for (std::size_t k : {1u, 2u, 4u}) {
    const NetResult r = net_scenario(k);
    EXPECT_EQ(r.originated, serial.originated) << "k=" << k;
    EXPECT_EQ(r.delivered, serial.delivered) << "k=" << k;
    EXPECT_EQ(r.received, serial.received) << "k=" << k;
  }
}

TEST(ShardedBackend, HeartbeatTicksBetweenWindows) {
  // Heartbeats work under sharding: the step that closes each barrier
  // window checks it (every worker parked in the barrier), so beats land on
  // window boundaries, monotonically, with event counts that end at the true
  // total. Progress lines at window granularity beat no progress at all on
  // long sharded runs.
  Simulator sim(5);
  install_sharded(sim, 2);
  sim.register_owner(1);
  sim.register_owner(2);
  sim.register_lookahead(1, 2, Duration::millis(1));

  std::vector<Simulator::Heartbeat> beats;
  sim.set_heartbeat(Duration::millis(2),
                    [&beats](const Simulator::Heartbeat& h) { beats.push_back(h); });

  // 20 ms of alternating-owner work: ~10 beats at a 2 ms period.
  for (int i = 1; i <= 20; ++i) {
    const ShardId o = i % 2 ? 1 : 2;
    sim.schedule_for(o, Duration::millis(i), TaskTag{"test", "tick"}, [] {});
  }
  EXPECT_EQ(sim.run(), 20u);

  ASSERT_GE(beats.size(), 3u);
  for (std::size_t i = 0; i < beats.size(); ++i) {
    // Window-boundary semantics: each beat's sim-time is a whole window
    // edge (a multiple of the 1 ms lookahead), never mid-window.
    EXPECT_EQ(beats[i].sim_now.as_nanos() % 1'000'000, 0) << "beat " << i;
    if (i > 0) {
      EXPECT_GT(beats[i].sim_now.as_nanos(), beats[i - 1].sim_now.as_nanos());
      EXPECT_GE(beats[i].events_executed, beats[i - 1].events_executed);
    }
  }
  // The last beat fires at or one period before the final window, so its
  // running count sits within a beat period of the true total.
  EXPECT_GE(beats.back().events_executed, 18u);
  EXPECT_LE(beats.back().events_executed, 20u);
}

}  // namespace
}  // namespace tussle::sim
