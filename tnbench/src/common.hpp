// Helpers shared by the packet workloads (flood, flood-sharded,
// firewall-flows): the one-router-per-AS network and the per-layer split
// of the event loop.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "net/network.hpp"
#include "routing/as_graph.hpp"
#include "routing/path_vector.hpp"
#include "sim/profiler.hpp"

namespace tnbench {

/// One router per AS of a hierarchy, one link per business relationship.
/// AS ids are dense from 1, so both tables are indexed by AS id.
struct AsNet {
  std::vector<tussle::net::NodeId> node_of;
  std::vector<std::map<tussle::net::AsId, tussle::net::IfIndex>> iface;  ///< neighbour -> iface
};

struct LinkPlan {
  double bits_per_second = 1e9;
  tussle::sim::Duration customer = tussle::sim::Duration::millis(1);
  tussle::sim::Duration peer = tussle::sim::Duration::millis(3);
  std::size_t queue_capacity = 64;
};

/// Builds the routers and links (spans net.add_node / net.connect).
AsNet build_as_net(tussle::net::Network& net, const tussle::routing::Hierarchy& h,
                   const LinkPlan& plan);

/// Installs `dest`'s prefix along every converged route (span
/// routing.fib_install; each set_prefix_route is timed as net.fib_write).
/// Returns the number of FIB writes.
std::uint64_t install_routes(tussle::net::Network& net, const AsNet& an,
                             const tussle::routing::PathVector::Outcome& out,
                             const tussle::net::Prefix& dest,
                             const std::vector<tussle::net::AsId>& skip);

/// One sim::LoopProfiler cell: wall time and events of one event tag.
struct LoopCell {
  double seconds = 0;
  std::uint64_t events = 0;
};
/// The profiler's cells keyed "component/kind" ("(untagged)" when a
/// scheduler gave no tag).
std::map<std::string, LoopCell> loop_cells(const tussle::sim::LoopProfiler& prof);

/// Per-layer metrics every packet pass reports: the net counters, and the
/// event loop split into hop, serialize and origination cells (the benchmark's
/// injection events, tagged `originate_cell`) with the remainder counted
/// as the simulator's own dispatch cost. `nested_in_hop_s` is time timed
/// separately inside hop events (policy evaluation, app dispatch).
void packet_layer_metrics(PassStats& st, const tussle::net::NetCounters& c,
                          const std::map<std::string, LoopCell>& cells, double sim_run_s,
                          double nested_in_hop_s, const std::string& originate_cell);

/// Conservation: originated = delivered + every drop, nothing pending.
void check_conservation(Checks& checks, const tussle::net::NetCounters& c,
                        std::size_t pending, std::int64_t expected_delta);

/// Packets resolved (delivered or dropped).
std::uint64_t resolved(const tussle::net::NetCounters& c);

void digest_counters(Digest& d, const tussle::net::NetCounters& c);

/// Hands the sim.run span's wall time `run_s` to the layers that spent it.
/// `layer_s` holds thread-seconds per layer out of `capacity_s`
/// thread-seconds of loop time (run_s itself when serial; every worker's
/// dispatch + drain + barrier time when sharded), so each layer gets its
/// share of the wall time; what is left stays with sim.
void attribute_loop(std::uint64_t span, double run_s, double capacity_s,
                    const std::map<std::string, double>& layer_s);

}  // namespace tnbench
