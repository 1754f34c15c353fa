#include "routing/path_vector.hpp"

#include <gtest/gtest.h>

#include "routing_bad_gadget.hpp"

namespace tussle::routing {
namespace {

// Same canonical topology as the AsGraph tests.
AsGraph canonical() {
  AsGraph g;
  g.add_peering(1, 2);
  g.add_customer_provider(3, 1);
  g.add_customer_provider(4, 1);
  g.add_customer_provider(5, 2);
  g.add_customer_provider(6, 3);
  g.add_customer_provider(7, 4);
  g.add_customer_provider(7, 5);
  g.add_as(8);
  g.add_peering(7, 8);
  return g;
}

TEST(PathVector, ConvergesOnCanonicalTopology) {
  AsGraph g = canonical();
  PathVector pv(g);
  auto out = pv.compute(6);
  EXPECT_TRUE(out.converged);
  EXPECT_LT(out.rounds, 20);
}

TEST(PathVector, TransitCustomersReachAStubDestination) {
  AsGraph g = canonical();
  PathVector pv(g);
  auto out = pv.compute(6);
  for (AsId a : g.ases()) {
    if (a == 8) continue;  // 8 buys transit from nobody; see the peer test
    ASSERT_TRUE(out.routes.count(a)) << "AS " << a << " has no route to 6";
    EXPECT_EQ(out.routes.at(a).as_path.back(), AsId{6});
    EXPECT_EQ(out.routes.at(a).as_path.front(), a);
  }
}

TEST(PathVector, AllPathsAreValleyFreeUnderGaoRexford) {
  AsGraph g = canonical();
  PathVector pv(g);
  for (AsId dest : g.ases()) {
    auto out = pv.compute(dest);
    for (const auto& [src, route] : out.routes) {
      (void)src;
      EXPECT_TRUE(g.valley_free(route.as_path))
          << "path to " << dest << " not valley-free";
    }
  }
}

TEST(PathVector, CustomerRoutePreferredOverPeerAndProvider) {
  // AS 1 can reach 7 via its customer 4 (1-4-7) or via peer 2 (1-2-5-7).
  // Gao–Rexford must choose the customer branch even at equal length.
  AsGraph g = canonical();
  PathVector pv(g);
  auto out = pv.compute(7);
  const auto& route1 = out.routes.at(1);
  ASSERT_EQ(route1.as_path.size(), 3u);
  EXPECT_EQ(route1.as_path[1], AsId{4});
}

TEST(PathVector, NoTransitThroughPeersForPeers) {
  // 8 peers only with 7. Routes learned by 7 from its providers must not be
  // exported to 8's... wait: they must NOT be; but 7's own route is.
  // Destination 6 is reachable from 7 only via providers, so 8 must have NO
  // route to 6 (7 will not give its peer free transit).
  AsGraph g = canonical();
  PathVector pv(g);
  auto out = pv.compute(6);
  EXPECT_TRUE(out.converged);
  EXPECT_EQ(out.routes.count(8), 0u);
}

TEST(PathVector, PeerReachesPeersOwnPrefix) {
  AsGraph g = canonical();
  PathVector pv(g);
  auto out = pv.compute(7);
  ASSERT_TRUE(out.routes.count(8));
  EXPECT_EQ(out.routes.at(8).as_path, (std::vector<AsId>{8, 7}));
}

TEST(PathVector, ShortestPathPolicyIgnoresBusiness) {
  // Under shortest-path-everyone-exports, 8 reaches 6 through the valley.
  AsGraph g = canonical();
  PathVector pv(g, PathVector::Policy::shortest_path());
  auto out = pv.compute(6);
  EXPECT_TRUE(out.converged);
  ASSERT_TRUE(out.routes.count(8));
  EXPECT_FALSE(g.valley_free(out.routes.at(8).as_path));
}

TEST(PathVector, UnknownDestinationYieldsNothing) {
  AsGraph g = canonical();
  PathVector pv(g);
  auto out = pv.compute(99);
  EXPECT_TRUE(out.routes.empty());
}

TEST(PathVector, BadGadgetDoesNotConverge) {
  // Classic dispute wheel: 1,2,3 around hub 0, each preferring the
  // counterclockwise neighbor's route over its direct route.
  const AsGraph g = fixtures::bad_gadget_graph();
  PathVector pv(g, fixtures::bad_gadget_policy());
  auto out = pv.compute(0, 64);
  EXPECT_FALSE(out.converged);
  EXPECT_EQ(out.rounds, 64);
}

TEST(PathVector, ComputeAllCoversAllDestinations) {
  AsGraph g = canonical();
  PathVector pv(g);
  auto all = pv.compute_all();
  EXPECT_EQ(all.size(), g.as_count());
  for (auto& [dest, out] : all) {
    (void)dest;
    EXPECT_TRUE(out.converged);
  }
}

TEST(PathVector, VisibilityLowerThanLinkState) {
  // §IV-C: a path-vector protocol makes it harder to see internal choices.
  // Each AS must infer strictly less than the full edge set.
  AsGraph g = canonical();
  PathVector pv(g);
  auto v = compare_visibility(g, pv);
  EXPECT_EQ(v.edges_total, 8u);
  EXPECT_GT(v.mean_edges_visible_pv, 0.0);
  EXPECT_LT(v.visibility_ratio, 1.0);
}

// Property sweep: Gao–Rexford converges on random hierarchies (the theorem
// this policy class is famous for), and all resulting paths are valley-free.
class GaoRexfordProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GaoRexfordProperty, ConvergesAndStaysValleyFree) {
  sim::Rng rng(GetParam());
  auto h = make_hierarchy(rng, 3, 8, 15);
  PathVector pv(h.graph);
  // Check a sample of destinations (one from each tier).
  for (AsId dest : {h.tier1[0], h.tier2[0], h.stubs[0], h.stubs.back()}) {
    auto out = pv.compute(dest);
    EXPECT_TRUE(out.converged) << "dest " << dest << " seed " << GetParam();
    for (const auto& [src, route] : out.routes) {
      (void)src;
      EXPECT_TRUE(h.graph.valley_free(route.as_path));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GaoRexfordProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace tussle::routing
