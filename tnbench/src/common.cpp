#include "common.hpp"

#include <algorithm>

namespace tnbench {

using namespace tussle;

AsNet build_as_net(net::Network& network, const routing::Hierarchy& h, const LinkPlan& plan) {
  const std::size_t n = h.graph.as_count();
  AsNet an;
  an.node_of.assign(n + 1, 0);
  an.iface.assign(n + 1, {});
  {
    Span s("net.add_node");
    for (net::AsId as = 1; as <= n; ++as) an.node_of[as] = network.add_node(as);
  }
  Span s("net.connect");
  for (net::AsId as = 1; as <= n; ++as) {
    for (const auto& [nbr, rel] : h.graph.neighbors(as)) {
      if (as < nbr) {
        network.connect(an.node_of[as], an.node_of[nbr], plan.bits_per_second,
                        rel == routing::Rel::kPeer ? plan.peer : plan.customer,
                        net::QueueKind::kDropTail, plan.queue_capacity);
      }
    }
  }
  for (net::AsId as = 1; as <= n; ++as) {
    for (const auto& [peer, ifx] : network.neighbors(an.node_of[as])) {
      an.iface[as][network.node(peer).as()] = ifx;
    }
  }
  return an;
}

std::uint64_t install_routes(net::Network& network, const AsNet& an,
                             const routing::PathVector::Outcome& out, const net::Prefix& dest,
                             const std::vector<net::AsId>& skip) {
  Span s("routing.fib_install");
  std::uint64_t writes = 0;
  for (const auto& [as, route] : out.routes) {
    if (!route.valid() || route.as_path.size() < 2) continue;
    if (std::find(skip.begin(), skip.end(), as) != skip.end()) continue;
    const net::IfIndex ifx = an.iface[as].at(route.next_hop);
    net::Node& node = network.node(an.node_of[as]);
    timed("net.fib_write", [&] { node.forwarding().set_prefix_route(dest, ifx); });
    ++writes;
  }
  return writes;
}

std::map<std::string, LoopCell> loop_cells(const sim::LoopProfiler& prof) {
  std::map<std::string, LoopCell> out;
  for (const auto& h : prof.hotspots(1000)) {
    LoopCell& c = out[h.component + "/" + h.kind];
    c.seconds += h.wall_seconds;
    c.events += h.events;
  }
  return out;
}

std::uint64_t resolved(const net::NetCounters& c) {
  return static_cast<std::uint64_t>(
      c.delivered.value() + c.dropped_filter.value() + c.dropped_ttl.value() +
      c.dropped_no_route.value() + c.dropped_queue.value() + c.dropped_link_down.value());
}

void packet_layer_metrics(PassStats& st, const net::NetCounters& c,
                          const std::map<std::string, LoopCell>& cells, double sim_run_s,
                          double nested_in_hop_s, const std::string& originate_cell) {
  auto cell = [&cells](const std::string& k) {
    auto it = cells.find(k);
    return it == cells.end() ? LoopCell{} : it->second;
  };
  const auto per_ns = [](double secs, std::uint64_t n) {
    return n == 0 ? 0.0 : secs * 1e9 / static_cast<double>(n);
  };
  const LoopCell hop = cell("net.link/propagate");
  const LoopCell ser = cell("net.link/serialize");
  const LoopCell orig = cell(originate_cell);
  double loop_total = 0;
  for (const auto& [k, v] : cells) loop_total += v.seconds;
  auto& m = st.layer;
  m["sim.events"] = static_cast<double>(st.events);
  m["sim.run_s"] = sim_run_s;
  m["sim.dispatch_ns_per_event"] = per_ns(sim_run_s - loop_total, st.events);
  m["net.originated"] = static_cast<double>(c.originated.value());
  m["net.forwarded"] = static_cast<double>(c.forwarded.value());
  m["net.delivered"] = static_cast<double>(c.delivered.value());
  m["net.dropped_queue"] = static_cast<double>(c.dropped_queue.value());
  m["net.dropped_filter"] = static_cast<double>(c.dropped_filter.value());
  m["net.delivered_ratio"] =
      c.originated.value() == 0
          ? 0.0
          : static_cast<double>(c.delivered.value()) / static_cast<double>(c.originated.value());
  m["net.hop_ns"] = per_ns(hop.seconds - nested_in_hop_s, hop.events);
  m["net.serialize_ns"] = per_ns(ser.seconds, ser.events);
  m["net.originate_ns"] = per_ns(orig.seconds, orig.events);
}

void check_conservation(Checks& checks, const net::NetCounters& c, std::size_t pending,
                        std::int64_t expected_delta) {
  const auto lost = static_cast<std::int64_t>(resolved(c));
  checks.expect(c.originated.value() - lost == expected_delta,
                "packet conservation: originated " + std::to_string(c.originated.value()) +
                    " != delivered + drops " + std::to_string(lost));
  checks.expect(pending == 0, "events still pending at the end: " + std::to_string(pending));
}

void digest_counters(Digest& d, const net::NetCounters& c) {
  for (const sim::Counter* k :
       {&c.originated, &c.delivered, &c.dropped_filter, &c.dropped_ttl, &c.dropped_no_route,
        &c.dropped_queue, &c.dropped_link_down, &c.redirected, &c.mirrored, &c.forwarded}) {
    d.add(static_cast<std::uint64_t>(k->value()));
  }
  d.add(static_cast<std::uint64_t>(c.delivery_latency_s.count()));
  d.add(c.delivery_latency_s.mean());
  d.add(c.delivery_latency_s.max());
}

void attribute_loop(std::uint64_t span, double run_s, double capacity_s,
                    const std::map<std::string, double>& layer_s) {
  if (span == 0 || capacity_s <= 0) return;
  const double scale = run_s / capacity_s;
  for (const auto& [layer, secs] : layer_s) {
    if (secs > 0) Trace::attribute(span, layer, secs * scale);
  }
}

}  // namespace tnbench
