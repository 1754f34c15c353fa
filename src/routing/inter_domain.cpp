#include "routing/inter_domain.hpp"

namespace tussle::routing {

InterDomainNet build_inter_domain(net::Network& net, const AsGraph& graph,
                                  const net::LinkSpec& spec) {
  InterDomainNet topo;
  for (AsId as : graph.ases()) {
    const net::NodeId n = net.add_node(as);
    topo.router_of[as] = n;
    const net::Address a{.provider = as, .subscriber = 0, .host = 1};
    net.node(n).add_address(a);
    topo.address_of[as] = a;
  }
  // One physical link per relationship edge. AsGraph stores each edge on
  // both endpoints; connect once per unordered pair.
  for (AsId as : graph.ases()) {
    for (const auto& [peer, rel] : graph.neighbors(as)) {
      (void)rel;
      if (as < peer) {
        net.connect(topo.router_of.at(as), topo.router_of.at(peer), spec.bandwidth_bps,
                    spec.propagation, spec.queue, spec.queue_capacity);
      }
    }
  }
  return topo;
}

std::size_t install_path_vector_routes(net::Network& net, const InterDomainNet& topo,
                                       const PathVector& pv) {
  // Installing a converged RIB touches every router's FIB at once. Declare
  // the touch as barrier-phase control work: a no-op during setup, and the
  // contract that lets a mid-run reconvergence run as a control event at a
  // sharded window's closing barrier (with every worker parked) instead
  // of tripping the cross-shard mutation check.
  if (sim::ShardAuditor* au = net.auditor()) {
    au->declare_control_event("routing.install-path-vector");
  }
  std::size_t installed = 0;
  // Precompute, per router, the interface toward each neighbor AS.
  std::map<net::NodeId, std::map<AsId, net::IfIndex>> iface_to;
  for (const auto& [as, node] : topo.router_of) {
    (void)as;
    for (net::IfIndex i = 0; i < static_cast<net::IfIndex>(net.node(node).interface_count());
         ++i) {
      const net::Link& l = net.link(net.node(node).link_of(i));
      const net::NodeId peer_node = l.peer_of(node);
      iface_to[node][net.node(peer_node).as()] = i;
    }
  }

  auto rib = pv.compute_all();
  for (const auto& [dest, outcome] : rib) {
    const net::Address dest_addr = topo.address_of.at(dest);
    for (const auto& [src, route] : outcome.routes) {
      if (src == dest || !route.valid()) continue;
      const net::NodeId router = topo.router_of.at(src);
      auto it = iface_to[router].find(route.next_hop);
      if (it == iface_to[router].end()) continue;
      net.node(router).forwarding().set_prefix_route(net::prefix_of(dest_addr), it->second);
      net.node(router).forwarding().set_as_route(dest, it->second);
      ++installed;
    }
  }
  // Source-route support: every router also knows the interface toward each
  // *adjacent* AS even without a policy route (carriage is then a matter of
  // payment, not reachability).
  for (const auto& [node, ifaces] : iface_to) {
    for (const auto& [as, iface] : ifaces) {
      net.node(node).forwarding().set_as_route(as, iface);
    }
  }
  return installed;
}

}  // namespace tussle::routing
