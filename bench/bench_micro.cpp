// Micro-benchmarks: engine and substrate throughput.
//
// Not a paper table — the systems-performance numbers a release ships with
// so users can size their experiments.
#include <benchmark/benchmark.h>

#include "core/tussle.hpp"

using namespace tussle;

namespace {

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.push(sim::SimTime::nanos(static_cast<std::int64_t>((i * 2654435761u) % 1000000)),
             [] {});
    }
    while (!q.empty()) q.pop();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1000)->Arg(10000);

void BM_SimulatorEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int sink = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule(sim::Duration::micros(i), [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_SimulatorEventDispatch);

void BM_PacketForwardingLine(benchmark::State& state) {
  const auto hops = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    net::Network net(sim);
    net::LinkSpec spec;
    spec.bandwidth_bps = 1e12;  // effectively free links: measure CPU path
    spec.propagation = sim::Duration::nanos(1);
    auto ids = net::build_line(net, hops, 1, spec);
    net::Address dst{.provider = 1, .subscriber = 9, .host = 9};
    net.node(ids.back()).add_address(dst);
    for (auto id : ids) net.node(id).forwarding().set_default_route(
        id == ids.front() ? 0 : static_cast<net::IfIndex>(net.node(id).interface_count() - 1));
    for (int i = 0; i < 100; ++i) {
      net::Packet p;
      p.dst = dst;
      p.ttl = 255;
      net.node(ids.front()).originate(std::move(p));
    }
    sim.run();
    benchmark::DoNotOptimize(net.counters().delivered.value());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100 *
                          static_cast<std::int64_t>(hops));
}
BENCHMARK(BM_PacketForwardingLine)->Arg(8)->Arg(32);

void BM_PolicyEval(benchmark::State& state) {
  auto onto = policy::standard_packet_ontology();
  auto expr = policy::Expr::compile(
      "proto == 'p2p' or (size > 1200 and tos == 'premium') or opaque", onto);
  net::Packet p;
  p.proto = net::AppProto::kWeb;
  p.size_bytes = 1400;
  p.tos = net::ServiceClass::kPremium;
  auto ctx = policy::context_for_packet(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr.test(ctx));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PolicyEval);

// A transit firewall's whole per-packet verdict, as Node::run_filters calls
// it: bind the packet's context, evaluate the six-rule policy, decide. The
// packets mix permits, denies and the default so no single rule dominates.
void BM_PacketFilter(benchmark::State& state) {
  policy::PolicySet ps(policy::standard_packet_ontology(), policy::Effect::kPermit);
  ps.add("permit-control", policy::Effect::kPermit, "proto == 'control'", "application");
  ps.add("deny-p2p", policy::Effect::kDeny, "proto == 'p2p'", "application");
  ps.add("deny-dns-big", policy::Effect::kDeny, "proto == 'dns' and size > 512", "application");
  ps.add("cap-premium", policy::Effect::kDeny, "tos == 'premium' and size > 1000", "qos");
  ps.add("deny-opaque-small", policy::Effect::kDeny, "opaque and size < 128", "security");
  ps.add("block-src", policy::Effect::kDeny, "src_as in [3, 7]", "identity");
  const net::PacketFilter f = policy::make_packet_filter("transit-fw", true, std::move(ps));
  std::vector<net::Packet> packets(64);
  sim::Rng rng(6);
  for (net::Packet& p : packets) {
    p.src.provider = static_cast<net::AsId>(rng.uniform_int(1, 12));
    p.dst.provider = static_cast<net::AsId>(rng.uniform_int(1, 12));
    p.proto = static_cast<net::AppProto>(rng.uniform_int(0, 7));
    p.tos = static_cast<net::ServiceClass>(rng.uniform_int(0, 2));
    p.size_bytes = static_cast<std::uint32_t>(rng.uniform_int(40, 1500));
    p.encrypted = rng.bernoulli(0.2);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.fn(packets[i++ % packets.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PacketFilter);

void BM_PolicyCompile(benchmark::State& state) {
  auto onto = policy::standard_packet_ontology();
  for (auto _ : state) {
    auto e = policy::Expr::compile("proto in ['p2p','vpn'] and size > 100 and not opaque",
                                   onto);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_PolicyCompile);

void BM_DijkstraSpf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  net::Network net(sim);
  sim::Rng rng(1);
  auto ids = net::build_random(net, n, 1, rng, 0.3, 0.3, net::LinkSpec{});
  routing::LinkState ls(net);
  for (auto _ : state) {
    auto tree = ls.spf(ids[0]);
    benchmark::DoNotOptimize(tree.dist.size());
  }
}
BENCHMARK(BM_DijkstraSpf)->Arg(50)->Arg(200);

void BM_PathVectorConvergence(benchmark::State& state) {
  sim::Rng rng(2);
  auto h = routing::make_hierarchy(rng, 3, 10, static_cast<std::size_t>(state.range(0)));
  routing::PathVector pv(h.graph);
  for (auto _ : state) {
    auto out = pv.compute(h.stubs[0]);
    benchmark::DoNotOptimize(out.rounds);
  }
}
BENCHMARK(BM_PathVectorConvergence)->Arg(20)->Arg(80);

// Partial origin-validation rollout: a stub hijacks another stub's prefix
// while half the ASes validate origins (two origins, one compute).
void BM_HijackPartial(benchmark::State& state) {
  sim::Rng rng(2);
  auto h = routing::make_hierarchy(rng, 3, 10, static_cast<std::size_t>(state.range(0)));
  std::vector<routing::AsId> validators;
  const auto all = h.graph.ases();
  for (std::size_t i = 0; i < all.size(); i += 2) validators.push_back(all[i]);
  for (auto _ : state) {
    auto r = routing::simulate_hijack_partial(h.graph, h.stubs.front(), h.stubs.back(),
                                              validators);
    benchmark::DoNotOptimize(r.captured);
  }
}
BENCHMARK(BM_HijackPartial)->Arg(20)->Arg(80);

void BM_MarketPeriod(benchmark::State& state) {
  sim::Rng rng(3);
  econ::MarketConfig cfg;
  cfg.consumers = 1000;
  std::vector<econ::ProviderConfig> providers(4);
  for (std::size_t i = 0; i < providers.size(); ++i) {
    providers[i].name = "p" + std::to_string(i);
  }
  econ::Market market(cfg, providers, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(market.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_MarketPeriod);

void BM_RegretMatchingRound(benchmark::State& state) {
  auto g = game::congestion_compliance_game();
  game::RegretMatching a(game::row_payoff_matrix(g));
  game::RegretMatching b(game::col_payoff_matrix(g));
  sim::Rng rng(4);
  for (auto _ : state) {
    auto out = game::play_repeated(g, a, b, 100, rng);
    benchmark::DoNotOptimize(out.row_mean_payoff);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_RegretMatchingRound);

void BM_NameLookup(benchmark::State& state) {
  names::ModularNameSystem s;
  std::vector<std::string> machines;
  for (int i = 0; i < 1000; ++i) {
    machines.push_back(s.register_service(
        "brand-" + std::to_string(i),
        net::Address{.provider = 1, .subscriber = static_cast<std::uint32_t>(i), .host = 1},
        "mb"));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.resolve_machine(machines[i % machines.size()]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NameLookup);

}  // namespace

BENCHMARK_MAIN();
