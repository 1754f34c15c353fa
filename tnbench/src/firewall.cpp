// firewall-flows: every transit router filters with a text-compiled
// PolicySet while AIMD flows and a datagram mix cross the hierarchy.
// Control events recompile and swap one router's filter or rewrite one
// prefix route, so FIB and filter writes sit beside the reads, and the
// flows' retransmit timers put cancels beside push/pop.
#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <utility>

#include "apps/mux.hpp"
#include "apps/transport.hpp"
#include "common.hpp"
#include "policy/packet_adapter.hpp"
#include "sim/mem_profile.hpp"

namespace tnbench {
namespace {

using namespace tussle;

constexpr std::size_t kTier1 = 3;
constexpr std::size_t kTier2 = 12;
constexpr std::size_t kStubs = 60;
constexpr std::size_t kFlows = 20;
constexpr std::uint64_t kSegments = 100;
constexpr std::size_t kDatagrams = 8000;
constexpr std::int64_t kTrafficUs = 800'000;  ///< datagrams and control events span this
constexpr std::int64_t kSwapEveryUs = 8'000;
constexpr std::int64_t kRewriteEveryUs = 5'000;
const sim::SimTime kHorizon = sim::SimTime::seconds(30);

/// The policy a transit router runs, as text: "<name> <effect> <space>: <expr>".
/// Unencrypted p2p and large unencrypted DNS are denied by every version;
/// the other thresholds and the blocked sources change from version to
/// version.
std::string policy_text(std::uint64_t version, net::AsId blocked_a, net::AsId blocked_b) {
  std::ostringstream t;
  t << "permit-control permit application: proto == 'control'\n"
    << "deny-p2p deny application: proto == 'p2p'\n"
    << "deny-dns-big deny application: proto == 'dns' and size > 512\n"
    << "cap-premium deny qos: tos == 'premium' and size > " << 1000 + 100 * (version % 5) << "\n"
    << "deny-opaque-small deny security: opaque and size < " << 128 + 64 * (version % 3) << "\n"
    << "block-src deny identity: src_as in [" << blocked_a << ", " << blocked_b << "]\n";
  return t.str();
}

/// A class every policy version denies: it must never be delivered.
bool always_denied(const net::Packet& p, bool broken) {
  if (p.encrypted) return false;
  if (broken && p.proto == net::AppProto::kWeb) return true;
  return p.proto == net::AppProto::kP2p || (p.proto == net::AppProto::kDns && p.size_bytes > 512);
}

policy::Effect parse_effect(const std::string& s) {
  if (s == "permit") return policy::Effect::kPermit;
  if (s == "deny") return policy::Effect::kDeny;
  throw std::invalid_argument("policy text: unknown effect '" + s + "'");
}

/// Compiles policy text into a filter (span-free: it also runs inside
/// control events, where it is timed as the policy.compile aggregate).
net::PacketFilter compile_filter(const std::string& name, const std::string& text,
                                 bool traced) {
  return timed("policy.compile", [&] {
    policy::PolicySet ps(policy::standard_packet_ontology(), policy::Effect::kPermit);
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream ls(line);
      std::string rule, effect, space;
      ls >> rule >> effect >> space;
      std::string expr;
      std::getline(ls, expr);
      ps.add(rule, parse_effect(effect), expr, space.substr(0, space.size() - 1));
    }
    net::PacketFilter f = policy::make_packet_filter(name, true, std::move(ps));
    if (traced) {
      f.fn = [inner = std::move(f.fn)](const net::Packet& p) {
        net::FilterDecision d = timed("policy.eval", [&] { return inner(p); });
        if (d.action == net::FilterAction::kDrop) Trace::add("policy.deny", 0);
        return d;
      };
    }
    return f;
  });
}

struct Datagram {
  std::int64_t at_us = 0;
  net::AsId src = 0;
  net::AsId dst = 0;
  net::AppProto proto = net::AppProto::kWeb;
  net::ServiceClass tos = net::ServiceClass::kBestEffort;
  bool encrypted = false;
  std::uint32_t size = 64;
};

struct Rewrite {
  std::int64_t at_us = 0;
  net::AsId node = 0;
  net::AsId dest = 0;
  net::IfIndex alt = 0;
  net::IfIndex orig = 0;
};

class Firewall final : public Workload {
 public:
  explicit Firewall(const Options& opt) : opt_(opt) {}
  int threads() const override { return 1; }
  PassStats pass(std::uint32_t index, Mode mode, Checks& checks) override;

 private:
  Options opt_;
};

PassStats Firewall::pass(std::uint32_t index, Mode mode, Checks& checks) {
  const bool traced = mode == Mode::kTraced;
  Trace::set_run(index);
  PassStats st;
  PassClock clock(st);

  sim::Rng rng(opt_.seed);
  routing::Hierarchy h;
  {
    Span s("routing.make_hierarchy");
    h = routing::make_hierarchy(rng, kTier1, kTier2, kStubs);
  }
  sim::Simulator sim(rng.next_u64());
  net::Network network(sim);
  LinkPlan plan;
  plan.bits_per_second = 1e8;
  const AsNet an = build_as_net(network, h, plan);
  auto addr = [](net::AsId as) { return net::Address{as, 1, 1, false}; };
  {
    Span s("net.add_address");
    for (const net::AsId as : h.stubs) network.node(an.node_of[as]).add_address(addr(as));
  }

  // Routes toward every stub prefix.
  routing::PathVector pv(h.graph);
  std::map<net::AsId, routing::PathVector::Outcome> routes;
  double pv_s = 0, fib_s = 0;
  std::uint64_t rounds = 0, fib_writes = 0;
  for (const net::AsId dest : h.stubs) {
    const double t0 = now_s();
    {
      Span s("routing.pv_compute");
      routes[dest] = pv.compute(dest);
    }
    const double t1 = now_s();
    fib_writes += install_routes(network, an, routes[dest], net::prefix_of(addr(dest)), {dest});
    pv_s += t1 - t0;
    fib_s += now_s() - t1;
    rounds += static_cast<std::uint64_t>(routes[dest].rounds);
  }

  // Endpoints: flow sources, flow sinks and the sources the policies block
  // are disjoint, so no policy version ever denies a flow.
  std::vector<net::AsId> stubs = h.stubs;
  rng.shuffle(stubs);
  const std::vector<net::AsId> sources(stubs.begin(), stubs.begin() + kFlows);
  const std::vector<net::AsId> sinks(stubs.begin() + kFlows, stubs.begin() + kFlows + kFlows / 2);
  const std::vector<net::AsId> blockable(stubs.begin() + kFlows + kFlows / 2, stubs.end());

  std::vector<net::AsId> transit = h.tier1;
  transit.insert(transit.end(), h.tier2.begin(), h.tier2.end());
  std::uint64_t compiles = 0, version = 0;
  auto next_text = [&]() {
    const std::uint64_t v = version++;
    return policy_text(v, blockable[(2 * v) % blockable.size()],
                       blockable[(2 * v + 1) % blockable.size()]);
  };
  auto filter_name = [](net::AsId as) { return "isp-" + std::to_string(as); };
  {
    Span s("policy.install");
    for (const net::AsId as : transit) {
      network.node(an.node_of[as]).add_filter(compile_filter(filter_name(as), next_text(), traced));
      ++compiles;
    }
  }

  // Applications.
  std::vector<std::unique_ptr<apps::FlowSink>> sink_apps;
  std::vector<std::unique_ptr<apps::AimdFlow>> flows;
  {
    Span s("apps.install");
    std::map<net::AsId, std::shared_ptr<apps::AppMux>> mux;
    for (const net::AsId as : sources) mux[as] = apps::AppMux::install(network.node(an.node_of[as]));
    for (const net::AsId as : sinks) {
      mux[as] = apps::AppMux::install(network.node(an.node_of[as]));
      sink_apps.push_back(std::make_unique<apps::FlowSink>(network, an.node_of[as], addr(as),
                                                           mux[as], net::AppProto::kWeb));
    }
    apps::AimdConfig cfg;
    cfg.total_segments = kSegments;
    for (std::size_t i = 0; i < kFlows; ++i) {
      const net::AsId src = sources[i];
      const net::AsId dst = sinks[i % sinks.size()];
      flows.push_back(std::make_unique<apps::AimdFlow>(network, an.node_of[src], addr(src),
                                                       addr(dst), mux[src], net::AppProto::kWeb,
                                                       static_cast<net::FlowId>(i + 1), cfg));
    }
    if (traced) {
      for (auto& [as, m] : mux) {
        network.node(an.node_of[as]).set_local_handler([m = m](const net::Packet& p) {
          timed("apps.dispatch", [&] { m->dispatch(p); });
        });
      }
    }
  }

  // Generated traffic and control plan.
  std::vector<Datagram> datagrams(kDatagrams);
  const net::AppProto protos[] = {net::AppProto::kWeb, net::AppProto::kMail,
                                  net::AppProto::kVoip, net::AppProto::kP2p,
                                  net::AppProto::kDns};
  for (Datagram& g : datagrams) {
    g.at_us = rng.uniform_int(0, kTrafficUs);
    g.src = h.stubs[static_cast<std::size_t>(rng.uniform_int(0, kStubs - 1))];
    do {
      g.dst = h.stubs[static_cast<std::size_t>(rng.uniform_int(0, kStubs - 1))];
    } while (g.dst == g.src);
    g.proto = protos[rng.uniform_int(0, 4)];
    g.tos = static_cast<net::ServiceClass>(rng.uniform_int(0, 2));
    g.encrypted = rng.bernoulli(0.2);
    g.size = static_cast<std::uint32_t>(rng.uniform_int(64, 1500));
  }
  std::vector<Rewrite> rewrites;
  for (std::int64_t t = kRewriteEveryUs; t <= kTrafficUs; t += kRewriteEveryUs) {
    Rewrite r;
    r.at_us = t;
    r.node = transit[static_cast<std::size_t>(rng.uniform_int(0, transit.size() - 1))];
    r.dest = h.stubs[static_cast<std::size_t>(rng.uniform_int(0, kStubs - 1))];
    const auto& out = routes.at(r.dest);
    const auto& mine = out.routes.at(r.node);
    // A neighbour whose own converged path avoids this router is a
    // loop-free detour while it is the only rewritten route.
    std::vector<net::AsId> alts;
    for (const auto& [nbr, ifx] : an.iface[r.node]) {
      auto it = out.routes.find(nbr);
      if (nbr == mine.next_hop || it == out.routes.end() || !it->second.valid()) continue;
      const auto& path = it->second.as_path;
      if (std::find(path.begin(), path.end(), r.node) != path.end()) continue;
      alts.push_back(nbr);
    }
    if (alts.empty()) continue;
    r.alt = an.iface[r.node].at(alts[static_cast<std::size_t>(rng.uniform_int(0, alts.size() - 1))]);
    r.orig = an.iface[r.node].at(mine.next_hop);
    rewrites.push_back(r);
  }

  std::uint64_t leaks = 0;
  const bool break_leak = opt_.broken("leak");
  network.add_delivery_observer([&leaks, break_leak](const net::Packet& p, net::NodeId) {
    if (always_denied(p, break_leak)) ++leaks;
  });

  std::uint64_t swaps = 0, control_fib_writes = 0;
  std::function<void(std::size_t)> inject;
  {
    Span s("sim.schedule");
    for (std::size_t i = 0; i < kFlows; ++i) {
      sim.schedule_at(sim::SimTime::micros(static_cast<std::int64_t>(10'000 * i)),
                      sim::TaskTag{"bench.firewall", "flow_start"},
                      [f = flows[i].get()] { f->start(); });
    }
    // One injector chain: each event originates every datagram due at its
    // time, then schedules itself for the next one, so the datagrams never
    // sit in the event queue all at once.
    std::sort(datagrams.begin(), datagrams.end(),
              [](const Datagram& a, const Datagram& b) { return a.at_us < b.at_us; });
    inject = [&network, &an, &addr, &datagrams, &sim, &inject](std::size_t i) {
      const std::int64_t now = datagrams[i].at_us;
      for (; i < datagrams.size() && datagrams[i].at_us == now; ++i) {
        const Datagram& g = datagrams[i];
        net::Packet p;
        p.src = addr(g.src);
        p.dst = addr(g.dst);
        p.proto = g.proto;
        p.tos = g.tos;
        p.encrypted = g.encrypted;
        p.size_bytes = g.size;
        network.node(an.node_of[g.src]).originate(std::move(p));
      }
      if (i < datagrams.size()) {
        sim.schedule_at(sim::SimTime::micros(datagrams[i].at_us),
                        sim::TaskTag{"bench.firewall", "datagram"}, [&inject, i] { inject(i); });
      }
    };
    sim.schedule_at(sim::SimTime::micros(datagrams.front().at_us),
                    sim::TaskTag{"bench.firewall", "datagram"}, [&inject] { inject(0); });
    for (std::int64_t t = kSwapEveryUs, k = 0; t <= kTrafficUs; t += kSwapEveryUs, ++k) {
      const net::AsId as = transit[static_cast<std::size_t>(k) % transit.size()];
      sim.schedule_at(sim::SimTime::micros(t), sim::TaskTag{"bench.firewall", "control"}, [&, as] {
        net::PacketFilter f = compile_filter(filter_name(as), next_text(), traced);
        ++compiles;
        net::Node& node = network.node(an.node_of[as]);
        timed("net.filter_swap", [&] {
          node.remove_filter(filter_name(as));
          node.add_filter(std::move(f));
        });
        ++swaps;
      });
    }
    // Each rewrite first restores the previous detour, so at most one route
    // deviates from the converged state at any time; the last is restored
    // after the traffic ends.
    auto write = [&](const Rewrite& r, net::IfIndex ifx) {
      net::Node& node = network.node(an.node_of[r.node]);
      timed("net.fib_write",
            [&] { node.forwarding().set_prefix_route(net::prefix_of(addr(r.dest)), ifx); });
      ++control_fib_writes;
    };
    for (std::size_t i = 0; i <= rewrites.size() && !rewrites.empty(); ++i) {
      const std::int64_t at =
          i < rewrites.size() ? rewrites[i].at_us : kTrafficUs + kRewriteEveryUs;
      sim.schedule_at(sim::SimTime::micros(at), sim::TaskTag{"bench.firewall", "control"},
                      [&rewrites, write, i] {
                        if (i > 0) write(rewrites[i - 1], rewrites[i - 1].orig);
                        if (i < rewrites.size()) write(rewrites[i], rewrites[i].alt);
                      });
    }
  }

  sim::LoopProfiler loop;
  sim::MemProfiler mem;
  if (traced) {
    sim.set_profiler(&loop);
  } else if (mode == Mode::kCounted) {
    sim.set_mem_profiler(&mem);
  }
  const auto setup_aggs = Trace::take_aggregates();

  clock.start_timed();
  const double run0 = now_s();
  std::uint64_t run_span = 0;
  {
    Span s("sim.run");
    run_span = s.id();
    st.events = sim.run(kHorizon);
  }
  const double run_s = now_s() - run0;
  clock.stop();
  const auto aggs = Trace::take_aggregates();

  const net::NetCounters& c = std::as_const(network).counters();
  st.units = st.events;
  st.packets = resolved(c);
  st.ops = static_cast<std::uint64_t>(c.originated.value());

  std::uint64_t finished = 0, segments = 0;
  for (const auto& f : flows) finished += f->finished() ? 1 : 0;
  for (const auto& s : sink_apps) segments += s->segments_received();
  checks.expect(leaks == 0, std::to_string(leaks) + " always-denied packets were delivered",
                leaks);
  checks.expect(finished == kFlows, std::to_string(kFlows - finished) + " flows unfinished",
                kFlows - finished);
  checks.expect(segments == kFlows * kSegments, "segments received != segments sent");
  check_conservation(checks, c, sim.events_pending(), opt_.broken("conservation") ? 1 : 0);

  Digest d;
  digest_counters(d, c);
  d.add(leaks).add(segments);
  for (const auto& f : flows) {
    d.add(f->completion_time_s()).add(f->retransmissions()).add(f->timeouts());
  }
  st.digest = d.value();

  auto& m = st.layer;
  m["routing.pv_computes"] = static_cast<double>(routes.size());
  m["routing.pv_rounds"] = static_cast<double>(rounds);
  m["routing.pv_ms"] = pv_s * 1e3;
  m["routing.fib_install_ms"] = fib_s * 1e3;
  m["net.fib_writes"] = static_cast<double>(fib_writes + control_fib_writes);
  m["net.filter_swaps"] = static_cast<double>(swaps);
  m["policy.compiles"] = static_cast<double>(compiles);
  m["apps.flows"] = kFlows;
  m["apps.flows_finished"] = static_cast<double>(finished);
  m["apps.segments_received"] = static_cast<double>(segments);
  if (mode == Mode::kCounted) {
    m["sim.schedules"] = static_cast<double>(mem.events_scheduled());
    m["sim.cancels"] = static_cast<double>(mem.events_cancelled());
  }
  if (traced) {
    auto agg = [&aggs](const char* k) {
      auto it = aggs.find(k);
      return it == aggs.end() ? Aggregate{} : it->second;
    };
    auto setup_agg = [&setup_aggs](const char* k) {
      auto it = setup_aggs.find(k);
      return it == setup_aggs.end() ? Aggregate{} : it->second;
    };
    const Aggregate eval = agg("policy.eval"), deny = agg("policy.deny"),
                    dispatch = agg("apps.dispatch"), compile = agg("policy.compile"),
                    swap = agg("net.filter_swap"), fib = agg("net.fib_write");
    const Aggregate compile_all{compile.seconds + setup_agg("policy.compile").seconds,
                                compile.count + setup_agg("policy.compile").count};
    const Aggregate fib_all{fib.seconds + setup_agg("net.fib_write").seconds,
                            fib.count + setup_agg("net.fib_write").count};
    const auto cells = loop_cells(loop);
    packet_layer_metrics(st, c, cells, run_s, eval.seconds + dispatch.seconds,
                         "bench.firewall/datagram");
    m["policy.evals"] = static_cast<double>(eval.count);
    m["policy.eval_ns"] = eval.count == 0 ? 0 : eval.seconds * 1e9 / static_cast<double>(eval.count);
    m["policy.deny_ratio"] =
        eval.count == 0 ? 0 : static_cast<double>(deny.count) / static_cast<double>(eval.count);
    m["policy.compile_us"] = compile_all.count == 0 ? 0 : compile_all.seconds * 1e6 /
                                                              static_cast<double>(compile_all.count);
    m["net.fib_write_ns"] =
        fib_all.count == 0 ? 0 : fib_all.seconds * 1e9 / static_cast<double>(fib_all.count);

    auto cell = [&cells](const char* k) {
      auto it = cells.find(k);
      return it == cells.end() ? 0.0 : it->second.seconds;
    };
    std::map<std::string, double> layer_s;
    layer_s["net"] = cell("net.link/propagate") - eval.seconds - dispatch.seconds +
                     cell("net.link/serialize") + cell("bench.firewall/datagram") +
                     swap.seconds + fib.seconds;
    layer_s["policy"] = eval.seconds + compile.seconds;
    layer_s["apps"] = dispatch.seconds + cell("bench.firewall/flow_start") +
                      cell("(untagged)/(untagged)");
    layer_s["bench"] = cell("bench.firewall/control") - compile.seconds - swap.seconds - fib.seconds;
    attribute_loop(run_span, run_s, run_s, layer_s);
  }
  return st;
}

}  // namespace

std::unique_ptr<Workload> make_firewall(const Options& opt) {
  return std::make_unique<Firewall>(opt);
}

}  // namespace tnbench
