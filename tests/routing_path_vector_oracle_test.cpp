// Differential test of the dense path-vector solver against a reference.
//
// `oracle` is the straightforward map-based solver the dense one replaced:
// every round copies the whole RIB, builds a fresh path per candidate and
// looks relationships up in the graph. It is slow and obviously faithful to
// the protocol, so the dense solver must agree with it route for route,
// round for round, on every input below.
#include <algorithm>
#include <array>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "routing/path_vector.hpp"
#include "routing_bad_gadget.hpp"
#include "sim/span.hpp"

namespace tussle::routing {
namespace {

/// One origin-validation discard: (as, from, claimed_origin).
using Discard = std::array<std::int64_t, 3>;

bool oracle_better(int pref_a, const std::vector<AsId>& path_a, int pref_b,
                   const std::vector<AsId>& path_b) {
  if (pref_a != pref_b) return pref_a > pref_b;
  if (path_a.size() != path_b.size()) return path_a.size() < path_b.size();
  return path_a < path_b;
}

PathVector::Outcome oracle(const AsGraph& graph, const PathVector::Policy& policy,
                           const std::vector<AsId>& claimed_origins,
                           const std::vector<AsId>& validators, AsId legitimate_origin,
                           int max_rounds, std::vector<Discard>& discards) {
  PathVector::Outcome out;
  std::map<AsId, AsRoute> rib;
  auto is_origin = [&](AsId a) {
    return std::find(claimed_origins.begin(), claimed_origins.end(), a) !=
           claimed_origins.end();
  };
  for (AsId dest : claimed_origins) {
    if (!graph.contains(dest)) continue;
    AsRoute self;
    self.as_path = {dest};
    self.next_hop = dest;
    self.local_pref = 1 << 20;
    rib[dest] = self;
  }
  if (rib.empty()) return out;

  const auto all = graph.ases();
  for (int round = 1; round <= max_rounds; ++round) {
    bool changed = false;
    std::map<AsId, AsRoute> next = rib;
    for (AsId self_as : all) {
      if (is_origin(self_as)) continue;
      const bool validates = std::binary_search(validators.begin(), validators.end(), self_as);
      AsRoute best;
      bool have = false;
      for (const auto& [nbr, rel] : graph.neighbors(self_as)) {
        auto it = rib.find(nbr);
        if (it == rib.end() || !it->second.valid()) continue;
        const AsRoute& nbr_route = it->second;
        const Rel me_to_nbr = reverse(rel);
        Rel nbr_learned_from;
        if (is_origin(nbr)) {
          nbr_learned_from = Rel::kCustomer;
        } else {
          auto r = graph.relationship(nbr, nbr_route.next_hop);
          if (!r) continue;
          nbr_learned_from = *r;
        }
        if (!is_origin(nbr) && !policy.export_ok(nbr, nbr_learned_from, me_to_nbr)) continue;
        if (std::find(nbr_route.as_path.begin(), nbr_route.as_path.end(), self_as) !=
            nbr_route.as_path.end()) {
          continue;
        }
        if (validates && nbr_route.as_path.back() != legitimate_origin) {
          discards.push_back({static_cast<std::int64_t>(self_as), static_cast<std::int64_t>(nbr),
                              static_cast<std::int64_t>(nbr_route.as_path.back())});
          continue;
        }
        std::vector<AsId> path;
        path.push_back(self_as);
        path.insert(path.end(), nbr_route.as_path.begin(), nbr_route.as_path.end());
        const int pref = policy.local_pref(self_as, rel, path);
        if (!have || oracle_better(pref, path, best.local_pref, best.as_path)) {
          best.as_path = std::move(path);
          best.next_hop = nbr;
          best.local_pref = pref;
          have = true;
        }
      }
      const AsRoute& cur = rib.count(self_as) ? rib.at(self_as) : AsRoute{};
      if (have) {
        if (!cur.valid() || cur.as_path != best.as_path) changed = true;
        next[self_as] = best;
      } else if (cur.valid()) {
        next.erase(self_as);
        changed = true;
      }
    }
    rib = std::move(next);
    out.rounds = round;
    if (!changed) {
      out.converged = true;
      break;
    }
  }
  out.routes = std::move(rib);
  return out;
}

/// The origin-invalid discards a traced compute recorded, in order.
std::vector<Discard> span_discards(const sim::SpanTracer& spans) {
  std::vector<Discard> out;
  for (const sim::Span& s : spans.spans()) {
    if (s.name != "origin-invalid") continue;
    Discard d{};
    for (std::size_t k = 0; k < d.size(); ++k) d[k] = std::get<std::int64_t>(s.attrs.at(k).value);
    out.push_back(d);
  }
  return out;
}

/// Runs both solvers on the same input and compares every field, and the
/// order in which origin-validation discards were reported. Returns how
/// many discards there were.
std::size_t expect_same(const AsGraph& graph, const PathVector::Policy& policy,
                 const std::vector<AsId>& origins, const std::vector<AsId>& validators,
                 AsId legitimate_origin, int max_rounds = 200) {
  sim::SpanTracer spans;
  PathVector pv(graph, policy);
  pv.set_span_tracer(&spans);
  const auto got = pv.compute_with_origins(origins, validators, legitimate_origin, max_rounds);
  std::vector<Discard> want_discards;
  const auto want =
      oracle(graph, policy, origins, validators, legitimate_origin, max_rounds, want_discards);
  EXPECT_EQ(span_discards(spans), want_discards);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.routes.size(), want.routes.size());
  for (const auto& [as, w] : want.routes) {
    auto it = got.routes.find(as);
    if (it == got.routes.end()) {
      ADD_FAILURE() << "AS " << as << " lost its route";
      continue;
    }
    EXPECT_EQ(it->second.as_path, w.as_path) << "AS " << as;
    EXPECT_EQ(it->second.next_hop, w.next_hop) << "AS " << as;
    EXPECT_EQ(it->second.local_pref, w.local_pref) << "AS " << as;
  }
  return want_discards.size();
}

/// Every `stride`-th AS of the graph, sorted: a partial validator set.
std::vector<AsId> every_nth(const AsGraph& g, std::size_t stride, std::size_t offset) {
  std::vector<AsId> out;
  const auto all = g.ases();
  for (std::size_t i = offset; i < all.size(); i += stride) out.push_back(all[i]);
  return out;
}

class PathVectorOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PathVectorOracle, HierarchyDestinationsAndValidatorSets) {
  sim::Rng rng(GetParam());
  const auto h = make_hierarchy(rng, 3, 10, 40);
  const AsGraph& g = h.graph;
  const std::vector<std::vector<AsId>> validator_sets = {
      {}, every_nth(g, 2, 0), every_nth(g, 3, 1), every_nth(g, 7, 2), g.ases()};
  std::size_t discards = 0;
  for (const auto& policy :
       {PathVector::Policy::gao_rexford(), PathVector::Policy::shortest_path()}) {
    for (AsId dest : {h.tier1[0], h.tier2[1], h.stubs[0], h.stubs.back()}) {
      SCOPED_TRACE(::testing::Message() << "seed " << GetParam() << " dest " << dest);
      expect_same(g, policy, {dest}, {}, dest);
      // A hijack by another stub, checked under each validator set.
      const AsId hijacker = h.stubs[h.stubs.size() / 2];
      for (const auto& validators : validator_sets) {
        discards += expect_same(g, policy, {dest, hijacker}, validators, dest);
      }
    }
    // A round cap that stops the computation before it converges.
    expect_same(g, policy, {h.stubs[0]}, {}, h.stubs[0], 2);
    expect_same(g, policy, {h.stubs[0]}, {}, h.stubs[0], 0);
  }
  EXPECT_GT(discards, 0u);  // the discard-order comparison saw real discards
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathVectorOracle, ::testing::Values(1, 2, 3, 7, 42, 20021));

TEST(PathVectorOracle, BadGadget) {
  const AsGraph g = fixtures::bad_gadget_graph();
  const PathVector::Policy policy = fixtures::bad_gadget_policy();
  for (int max_rounds : {1, 2, 3, 17, 64}) expect_same(g, policy, {0}, {}, 0, max_rounds);
}

TEST(PathVectorOracle, SparseAsIdsAndAbsentOrigin) {
  // AsIds far apart and out of insertion order: the dense index must not
  // assume ids are small or contiguous.
  AsGraph g;
  g.add_peering(900000, 70);
  g.add_customer_provider(31337, 900000);
  g.add_customer_provider(5, 900000);
  g.add_customer_provider(4096, 70);
  g.add_customer_provider(12, 4096);
  g.add_customer_provider(12, 31337);
  g.add_peering(5, 12);
  g.add_as(2000000);
  for (const auto& policy :
       {PathVector::Policy::gao_rexford(), PathVector::Policy::shortest_path()}) {
    for (AsId dest : g.ases()) {
      expect_same(g, policy, {dest}, {}, dest);
      expect_same(g, policy, {dest, 12}, {70, 4096}, dest);
    }
    // An origin that is not in the graph announces nothing.
    expect_same(g, policy, {424242}, {}, 424242);
    expect_same(g, policy, {424242, 5}, {70, 900000}, 424242);
    expect_same(g, policy, {5, 5}, {}, 5);
  }
}

}  // namespace
}  // namespace tussle::routing
