#include "net/network.hpp"

#include <stdexcept>

#include "sim/exec_backend.hpp"
#include "sim/shard_audit.hpp"

namespace tussle::sim {

/// Per-owner packet-id lanes draw from disjoint namespaces — (owner+1)<<40,
/// the event-id scheme — so uids are unique and per-owner deterministic
/// without any cross-thread coordination. Nothing merges back: the base
/// source keeps namespace 0 for serial/setup draws.
template <>
struct LaneTraits<net::PacketIdSource> {
  static net::PacketIdSource* make(const net::PacketIdSource& base, ShardId owner) {
    (void)base;
    auto* lane = new net::PacketIdSource();
    lane->set_namespace((static_cast<std::uint64_t>(owner) + 1) << 40);
    return lane;
  }
  static void fold(net::PacketIdSource& base, net::PacketIdSource& lane) {
    (void)base;
    (void)lane;  // namespaced counters never collide; there is nothing to fold
  }
};

template <>
struct LaneTraits<net::NetCounters> {
  static net::NetCounters* make(const net::NetCounters& base, ShardId owner) {
    (void)base;
    (void)owner;
    return new net::NetCounters();
  }
  static void fold(net::NetCounters& base, net::NetCounters& lane) {
    base.merge(lane);
    lane.reset();
  }
};

}  // namespace tussle::sim

namespace tussle::net {

namespace {

/// Provisional shard owner of a link: same-AS links belong to that AS,
/// cross-AS links are the boundary channels the PDES design shards across,
/// so both sides may touch them (tallied, never a violation).
sim::ShardId link_shard(const Network& net, NodeId a, NodeId b) {
  const AsId as_a = net.node(a).as();
  const AsId as_b = net.node(b).as();
  return as_a == as_b ? static_cast<sim::ShardId>(as_a) : sim::kSharedShard;
}

/// Records a link-level drop as a zero-length span under the packet's
/// lifetime span (link code runs outside any hop context) and closes the
/// packet span — a dropped packet's causal tree ends here.
void span_link_drop(sim::SpanTracer* sp, sim::SimTime now, std::uint64_t uid,
                    const char* reason, LinkId link, NodeId sender) {
  if (sp == nullptr) return;
  const sim::SpanId id =
      sp->begin_under(sp->find_packet(uid), now, "net.link", "drop",
                      {{"reason", reason}, {"link", link}, {"node", sender}});
  sp->end(id, now);
  sp->end_packet(uid, now);
}

}  // namespace

// ---------------------------------------------------------------- Link ----

Link::Link(Network& net, LinkId id, NodeId a, NodeId b, double bits_per_second,
           sim::Duration propagation, QueueKind kind, std::size_t queue_capacity)
    : net_(&net), id_(id), bps_(bits_per_second), prop_(propagation) {
  if (bits_per_second <= 0) throw std::invalid_argument("link bandwidth must be positive");
  dirs_[0].from = a;
  dirs_[0].to = b;
  dirs_[1].from = b;
  dirs_[1].to = a;
  dirs_[0].queue = make_queue(kind, queue_capacity);
  dirs_[1].queue = make_queue(kind, queue_capacity);
}

NodeId Link::peer_of(NodeId n) const {
  if (n == dirs_[0].from) return dirs_[0].to;
  if (n == dirs_[1].from) return dirs_[1].to;
  throw std::invalid_argument("node is not an endpoint of this link");
}

std::size_t Link::dir_index_for(NodeId from) const {
  if (from == dirs_[0].from) return 0;
  if (from == dirs_[1].from) return 1;
  throw std::invalid_argument("node is not an endpoint of this link");
}

bool Link::transmit_from(NodeId sender, Packet p) {
  // The egress queue being mutated lives with the sender: transmitting is
  // an action of the sender's shard, whichever shard the link registered
  // under.
  if (auto* au = net_->auditor()) {
    au->check_mutation("net.link", id_, net_->node(sender).as(), "transmit");
  }
  if (!up_) {
    net_->counters().dropped_link_down.add();
    TUSSLE_TRACE_EVENT(net_->tracer(), net_->simulator().now(), sim::TraceLevel::kInfo,
                       "net.link", "drop", {"reason", "link-down"}, {"uid", p.uid},
                       {"flow", p.flow}, {"link", id_}, {"node", sender});
    span_link_drop(net_->spans(), net_->simulator().now(), p.uid, "link-down", id_, sender);
    return false;
  }
  Direction& d = dir_for(sender);
  const std::uint64_t uid = p.uid;
  const FlowId flow = p.flow;
  if (!d.queue->enqueue(std::move(p))) {
    net_->counters().dropped_queue.add();
    TUSSLE_TRACE_EVENT(net_->tracer(), net_->simulator().now(), sim::TraceLevel::kInfo,
                       "net.link", "drop", {"reason", "queue-full"}, {"uid", uid},
                       {"flow", flow}, {"link", id_}, {"node", sender});
    span_link_drop(net_->spans(), net_->simulator().now(), uid, "queue-full", id_, sender);
    return false;
  }
  TUSSLE_TRACE_EVENT(net_->tracer(), net_->simulator().now(), sim::TraceLevel::kDebug,
                     "net.link", "enqueue", {"uid", uid}, {"flow", flow}, {"link", id_},
                     {"node", sender}, {"queued", d.queue->packets()});
  if (!d.transmitting) start_transmission(d);
  return true;
}

void Link::start_transmission(Direction& d) {
  auto p = d.queue->dequeue();
  if (!p) return;
  d.transmitting = true;
  const auto serialization =
      sim::Duration::seconds(static_cast<double>(p->size_bytes) * 8.0 / bps_);
  auto& sim = net_->simulator();
  // Serialization completes first; then the packet propagates while the
  // transmitter moves on to the next queued packet.
  sim.schedule(serialization, sim::TaskTag{"net.link", "serialize"},
               [this, &d, pkt = std::move(*p)]() mutable {
    // Serialization completion is the transmitting shard's own event.
    if (auto* au = net_->auditor()) au->claim("net.link", id_, net_->node(d.from).as());
    d.transmitting = false;
    d.tx_packets += 1;
    d.tx_bytes += pkt.size_bytes;
    const NodeId to = d.to;
    // Propagation hands the packet to the receiving node's owner: on the
    // sharded backend a cross-AS hop rides the barrier inbox (propagation
    // delay >= the registered lookahead makes that legal), while a same-AS
    // hop stays on the owner's own queue. Serial execution is unaffected.
    net_->simulator().schedule_for(static_cast<sim::ShardId>(net_->node(to).as()), prop_,
                                   sim::TaskTag{"net.link", "propagate"},
                                   [this, to, pkt = std::move(pkt)]() mutable {
      if (!up_) {
        net_->counters().dropped_link_down.add();
        span_link_drop(net_->spans(), net_->simulator().now(), pkt.uid, "link-down", id_, to);
        return;
      }
      Node& dst = net_->node(to);
      dst.receive(std::move(pkt));
    });
    if (!d.queue->empty()) start_transmission(d);
  });
}

void Link::set_up(bool up) {
  if (auto* au = net_->auditor()) {
    au->check_mutation("net.link", id_, link_shard(*net_, dirs_[0].from, dirs_[1].from),
                       "set_up");
  }
  up_ = up;
}

// ---------------------------------------------------------- NetCounters --

void NetCounters::reset() {
  originated.reset();
  delivered.reset();
  dropped_filter.reset();
  dropped_ttl.reset();
  dropped_no_route.reset();
  dropped_queue.reset();
  dropped_link_down.reset();
  redirected.reset();
  mirrored.reset();
  forwarded.reset();
  delivery_latency_s.reset();
}

void NetCounters::merge(const NetCounters& other) {
  originated.add(other.originated.value());
  delivered.add(other.delivered.value());
  dropped_filter.add(other.dropped_filter.value());
  dropped_ttl.add(other.dropped_ttl.value());
  dropped_no_route.add(other.dropped_no_route.value());
  dropped_queue.add(other.dropped_queue.value());
  dropped_link_down.add(other.dropped_link_down.value());
  redirected.add(other.redirected.value());
  mirrored.add(other.mirrored.value());
  forwarded.add(other.forwarded.value());
  delivery_latency_s.merge(other.delivery_latency_s);
}

// -------------------------------------------------------------- Network --

NetCounters& Network::counters() noexcept {
  if (auto* lane = sim::shard_lane(*sim_, counters_)) return *lane;
  return counters_;
}

PacketIdSource& Network::packet_ids() noexcept {
  if (auto* lane = sim::shard_lane(*sim_, ids_)) return *lane;
  return ids_;
}

NodeId Network::add_node(AsId as) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(*this, id, as));
  // Each AS is an execution owner: the sharded backend pre-creates its
  // logical process (a no-op on the serial backend).
  sim_->register_owner(static_cast<sim::ShardId>(as));
  if (auto* au = auditor()) au->register_component("net.node", id, as);
  return id;
}

Link& Network::connect(NodeId a, NodeId b, double bits_per_second, sim::Duration propagation,
                       QueueKind kind, std::size_t queue_capacity) {
  if (a == b) throw std::invalid_argument("self-links are not supported");
  const auto id = static_cast<LinkId>(links_.size());
  links_.push_back(std::make_unique<Link>(*this, id, a, b, bits_per_second, propagation, kind,
                                          queue_capacity));
  node(a).attach_interface(id);
  node(b).attach_interface(id);
  // Cross-AS propagation delays bound how early one owner can affect
  // another: the minimum becomes the sharded backend's barrier lookahead
  // (a no-op for same-AS pairs and on the serial backend).
  sim_->register_lookahead(static_cast<sim::ShardId>(node(a).as()),
                           static_cast<sim::ShardId>(node(b).as()), propagation);
  if (auto* au = auditor()) au->register_component("net.link", id, link_shard(*this, a, b));
  return *links_.back();
}

void Network::notify_delivered(const Packet& p, NodeId at) {
  // Network-wide counters are deliberately shared across shards today; the
  // tally marks them as a merge point the PDES refactor must make
  // shard-local-then-merge.
  if (auto* au = auditor()) au->record_shared_access("net.counters", "deliver");
  NetCounters& ctr = counters();  // owner lane under sharded execution
  ctr.delivered.add();
  const double latency_s = sim_->now().as_seconds() - p.sent_at_s;
  ctr.delivery_latency_s.observe(latency_s);
  TUSSLE_TRACE_EVENT(tracer(), sim_->now(), sim::TraceLevel::kInfo, "net.node", "deliver",
                     {"uid", p.uid}, {"flow", p.flow}, {"node", at},
                     {"latency_s", latency_s});
  if (spans_ != nullptr) {
    // Delivery can happen inside a hop span (forwarded packet) or with no
    // active context (origination straight to a local address); adopt the
    // packet span in the latter case so the deliver span never floats free.
    const bool adopt = spans_->current() == sim::kNoSpan;
    if (adopt) spans_->push(spans_->find_packet(p.uid));
    {
      // Settlements posted by delivery observers (e.g. PaidTransit::settle)
      // nest under this span: "who was compensated because it arrived".
      sim::ScopedSpan deliver(spans_, sim_->now(), "net.node", "deliver",
                              {{"node", at}, {"latency_s", latency_s}});
      for (const auto& obs : observers_) obs(p, at);
    }
    if (adopt) spans_->pop();
    spans_->end_packet(p.uid, sim_->now());
  } else {
    for (const auto& obs : observers_) obs(p, at);
  }
}

std::vector<std::pair<NodeId, IfIndex>> Network::neighbors(NodeId n) const {
  std::vector<std::pair<NodeId, IfIndex>> out;
  const Node& nd = node(n);
  for (IfIndex i = 0; i < static_cast<IfIndex>(nd.interface_count()); ++i) {
    const Link& l = link(nd.link_of(i));
    out.emplace_back(l.peer_of(n), i);
  }
  return out;
}

}  // namespace tussle::net
