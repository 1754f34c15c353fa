// flood / flood-sharded: a prefix hijack on one large hierarchy, then
// every stub floods probe trains toward the stolen prefix. Almost all the
// time is event dispatch, the link hop and FIB reads; routing runs only in
// set-up. flood-sharded runs the same inputs on sim::ShardedBackend.
#include <memory>
#include <utility>

#include "common.hpp"
#include "sim/exec_profile.hpp"
#include "sim/mem_profile.hpp"
#include "sim/sharded_backend.hpp"

namespace tnbench {
namespace {

using namespace tussle;

constexpr std::size_t kTier1 = 4;
constexpr std::size_t kTier2 = 40;
constexpr std::size_t kStubs = 400;
constexpr int kProbesPerStub = 64;

/// One stub's probe train toward the stolen prefix.
struct Train {
  sim::Simulator* sim = nullptr;
  net::Node* node = nullptr;
  net::AsId src = 0;
  net::Address dst;
  int left = 0;

  void fire() {
    net::Packet p;
    p.src = net::Address{src, 1, 1, false};
    p.dst = dst;
    p.proto = net::AppProto::kWeb;
    node->originate(std::move(p));
    if (--left > 0) {
      sim->schedule_for(static_cast<sim::ShardId>(src), sim::Duration::micros(500),
                        sim::TaskTag{"bench.flood", "probe"}, [this] { fire(); });
    }
  }
};

class Flood final : public Workload {
 public:
  Flood(const Options& opt, std::size_t shards) : opt_(opt), shards_(shards) {}

  /// The sharded backend's workers plus its coordinator.
  int threads() const override { return shards_ == 0 ? 1 : static_cast<int>(shards_) + 1; }

  PassStats pass(std::uint32_t index, Mode mode, Checks& checks) override {
    PassStats st = run(index, mode, shards_, checks);
    if (index == 0) digest_ = st.digest;
    return st;
  }

  void finish(Checks& checks) override {
    if (shards_ <= 1) return;
    // The sharded backend promises byte-identical results at any shard
    // count: replay the inputs on one shard and compare digests.
    const PassStats one = run(0, Mode::kPlain, 1, checks);
    const std::uint64_t want = opt_.broken("shard-parity") ? ~digest_ : digest_;
    checks.expect(one.digest == want, "digest differs between 1 and " +
                                          std::to_string(shards_) + " shards");
  }

 private:
  PassStats run(std::uint32_t index, Mode mode, std::size_t shards, Checks& checks);

  Options opt_;
  std::size_t shards_;
  std::uint64_t digest_ = 0;
};

PassStats Flood::run(std::uint32_t index, Mode mode, std::size_t shards, Checks& checks) {
  Trace::set_run(index);
  PassStats st;
  PassClock clock(st);

  sim::Rng rng(opt_.seed);
  routing::Hierarchy h;
  {
    Span s("routing.make_hierarchy");
    h = routing::make_hierarchy(rng, kTier1, kTier2, kStubs);
  }
  const auto vi = static_cast<std::size_t>(rng.uniform_int(0, kStubs - 1));
  auto hi = static_cast<std::size_t>(rng.uniform_int(0, kStubs - 2));
  if (hi >= vi) ++hi;
  const net::AsId victim = h.stubs[vi];
  const net::AsId hijacker = h.stubs[hi];
  const net::Address prefix_addr{victim, 1, 1, false};

  sim::Simulator sim(rng.next_u64());
  if (shards > 0) {
    Span s("sim.set_backend");
    sim.set_backend(std::make_unique<sim::ShardedBackend>(sim, shards));
  }
  net::Network network(sim);
  const AsNet an = build_as_net(network, h, LinkPlan{});

  routing::PathVector pv(h.graph);
  routing::PathVector::Outcome out;
  const double pv0 = now_s();
  {
    Span s("routing.pv_compute");
    out = pv.compute_with_origins({victim, hijacker}, false, victim);
  }
  const double pv_s = now_s() - pv0;
  const double fib0 = now_s();
  const std::uint64_t fib_writes =
      install_routes(network, an, out, net::prefix_of(prefix_addr), {victim, hijacker});
  const double fib_s = now_s() - fib0;

  // Both origins answer for the prefix. Each handler runs on its own AS's
  // logical process, so the per-source tallies need no locking.
  const std::size_t n = h.graph.as_count();
  std::vector<std::uint64_t> at_victim(n + 1, 0), at_hijacker(n + 1, 0);
  {
    Span s("net.add_address");
    auto answer = [&](net::AsId as, std::vector<std::uint64_t>* tally) {
      net::Node& node = network.node(an.node_of[as]);
      node.add_address(prefix_addr);
      node.set_local_handler([tally](const net::Packet& p) { ++(*tally)[p.src.provider]; });
    };
    answer(victim, &at_victim);
    answer(hijacker, &at_hijacker);
  }

  // Each stub sends one probe train. A train is one chain of events on its
  // source's logical process (schedule_for): each probe schedules the next,
  // so the pending set stays one event per stub and, under sharding, the
  // stubs originate concurrently.
  std::vector<Train> trains;
  trains.reserve(h.stubs.size());
  std::uint64_t probes = 0;
  {
    Span s("sim.schedule");
    int stagger = 0;
    for (const net::AsId src : h.stubs) {
      if (src == victim || src == hijacker) continue;
      trains.push_back(Train{&sim, &network.node(an.node_of[src]), src, prefix_addr,
                             kProbesPerStub});
      Train* t = &trains.back();
      sim.schedule_for(static_cast<sim::ShardId>(src),
                       sim::Duration::micros(500 + 100 * (stagger % 7)),
                       sim::TaskTag{"bench.flood", "probe"}, [t] { t->fire(); });
      probes += kProbesPerStub;
      ++stagger;
    }
  }

  sim::LoopProfiler loop;
  sim::ExecProfiler exec;
  sim::MemProfiler mem;
  if (mode == Mode::kTraced) {
    sim.set_profiler(&loop);
    if (shards > 0) sim.set_exec_profiler(&exec);
  } else if (mode == Mode::kCounted) {
    sim.set_mem_profiler(&mem);
  }

  clock.start_timed();
  const double run0 = now_s();
  std::uint64_t run_span = 0;
  {
    Span s("sim.run");
    run_span = s.id();
    st.events = sim.run();
  }
  const double run_s = now_s() - run0;
  clock.stop();

  const net::NetCounters& c = std::as_const(network).counters();
  st.units = st.events;
  st.packets = resolved(c);
  st.ops = probes;

  // Every delivered probe must reach the origin its source's converged
  // route ends at.
  const bool flip = opt_.broken("origin");
  std::uint64_t misrouted = 0;
  for (const auto& [as, route] : out.routes) {
    if (!route.valid()) continue;
    net::AsId expect = route.as_path.back();
    if (flip) expect = expect == victim ? hijacker : victim;
    if (expect != victim) misrouted += at_victim[as];
    if (expect != hijacker) misrouted += at_hijacker[as];
  }
  checks.expect(misrouted == 0,
                std::to_string(misrouted) + " probes reached the wrong origin", misrouted);
  checks.expect(c.originated.value() == static_cast<std::int64_t>(probes),
                "originated != probes scheduled");
  check_conservation(checks, c, sim.events_pending(), opt_.broken("conservation") ? 1 : 0);

  Digest d;
  digest_counters(d, c);
  for (std::size_t as = 1; as <= n; ++as) d.add(at_victim[as]).add(at_hijacker[as]);
  st.digest = d.value();

  auto& m = st.layer;
  m["routing.pv_computes"] = 1;
  m["routing.pv_rounds"] = out.rounds;
  m["routing.pv_ms"] = pv_s * 1e3;
  m["routing.fib_install_ms"] = fib_s * 1e3;
  m["net.fib_writes"] = static_cast<double>(fib_writes);
  if (mode == Mode::kCounted) {
    m["sim.schedules"] = static_cast<double>(mem.events_scheduled());
    m["sim.cancels"] = static_cast<double>(mem.events_cancelled());
  }
  if (mode == Mode::kTraced) {
    const auto cells = loop_cells(loop);
    packet_layer_metrics(st, c, cells, run_s, 0.0, "bench.flood/probe");
    double capacity = run_s;
    double loop_s = 0;
    for (const auto& [k, v] : cells) loop_s += v.seconds;
    std::map<std::string, double> layer_s{{"net", loop_s}};
    if (shards > 0) {
      const auto ph = exec.phases();
      capacity = ph.dispatch + ph.drain + ph.barrier;
      layer_s["shard"] = ph.drain + ph.barrier;
      const auto windows = static_cast<double>(exec.windows());
      m["shard.windows"] = windows;
      m["shard.events_per_window"] = windows > 0 ? static_cast<double>(st.events) / windows : 0;
      m["shard.barrier_wait_frac"] = capacity > 0 ? ph.barrier / capacity : 0;
      m["shard.drain_s"] = ph.drain;
      m["sim.dispatch_ns_per_event"] =
          st.events == 0 ? 0 : (ph.dispatch - loop_s) * 1e9 / static_cast<double>(st.events);
    }
    attribute_loop(run_span, run_s, capacity, layer_s);
    const Aggregate fib = Trace::take_aggregates()["net.fib_write"];
    m["net.fib_write_ns"] = fib.count == 0 ? 0 : fib.seconds * 1e9 / static_cast<double>(fib.count);
  }
  return st;
}

}  // namespace

std::unique_ptr<Workload> make_flood(const Options& opt, std::size_t shards) {
  return std::make_unique<Flood>(opt, shards);
}

}  // namespace tnbench
