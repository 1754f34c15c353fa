// Heap allocations of the model kernels: the path-vector solver and the
// regret-matching learner.
//
// This binary replaces the global operator new/delete with counting
// versions, which is why it is its own executable: the counter must see
// every allocation the kernels make and nothing else may depend on it.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "game/canonical.hpp"
#include "game/learners.hpp"
#include "routing/path_vector.hpp"
#include "routing_bad_gadget.hpp"

namespace {
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tussle {
namespace {

/// Allocations made while `f` runs (frees are not subtracted).
template <class F>
std::uint64_t allocs_during(F&& f) {
  const std::uint64_t before = g_allocs;
  f();
  return g_allocs - before;
}

/// Allocations a compute may make per AS. The result map holds one node
/// and one path per reachable AS; the per-compute index, adjacency and the
/// two round buffers add a handful of arrays, not a per-round cost.
constexpr std::uint64_t kAllocsPerAs = 3;

TEST(RoutingAlloc, CountingAllocatorSeesAllocations) {
  // Guards the test itself: a counter that cannot move proves nothing.
  EXPECT_GE(allocs_during([] {
              void* volatile p = ::operator new(64);
              ::operator delete(p);
            }),
            1u);
}

TEST(RoutingAlloc, ComputeIsLinearInAsCount) {
  sim::Rng rng(1);
  const auto h = routing::make_hierarchy(rng, 3, 16, 100);
  const std::uint64_t bound = kAllocsPerAs * h.graph.as_count();
  routing::PathVector pv(h.graph);
  int max_rounds_seen = 0;
  for (routing::AsId dest : {h.tier1[0], h.tier2[0], h.stubs[0], h.stubs.back()}) {
    routing::PathVector::Outcome out;
    EXPECT_LE(allocs_during([&] { out = pv.compute(dest); }), bound) << "dest " << dest;
    EXPECT_TRUE(out.converged);
    max_rounds_seen = std::max(max_rounds_seen, out.rounds);
  }
  EXPECT_GT(max_rounds_seen, 2);  // several rounds ran inside the bound

  // A hijack with half the ASes validating, as the rollout runs it.
  std::vector<routing::AsId> validators;
  const auto all = h.graph.ases();
  for (std::size_t i = 0; i < all.size(); i += 2) validators.push_back(all[i]);
  routing::HijackOutcome r;
  EXPECT_LE(allocs_during([&] {
              r = routing::simulate_hijack_partial(h.graph, h.stubs.front(), h.stubs.back(),
                                                   validators);
            }),
            bound);
  EXPECT_TRUE(r.converged);
}

TEST(RoutingAlloc, RoundsDoNotAllocate) {
  // Bad Gadget never converges, so the round cap alone sets the round
  // count: ten times the rounds must cost no more allocations.
  const routing::AsGraph g = routing::fixtures::bad_gadget_graph();
  routing::PathVector pv(g, routing::fixtures::bad_gadget_policy());
  auto allocs_at = [&pv](int max_rounds) {
    routing::PathVector::Outcome out;
    const std::uint64_t n = allocs_during([&] { out = pv.compute(0, max_rounds); });
    EXPECT_FALSE(out.converged);
    EXPECT_EQ(out.rounds, max_rounds);
    return n;
  };
  EXPECT_EQ(allocs_at(400), allocs_at(40));
}

TEST(RoutingAlloc, RegretMatchingSteadyStateIsHeapFree) {
  const game::MatrixGame g = game::matching_pennies();
  game::RegretMatching row(game::row_payoff_matrix(g));
  game::RegretMatching col(game::col_payoff_matrix(g));
  sim::Rng rng(7);
  auto play = [&](int rounds) {
    for (int t = 0; t < rounds; ++t) {
      const std::size_t a = row.choose(rng);
      const std::size_t b = col.choose(rng);
      row.observe(b, g.row_payoff(a, b));
      col.observe(a, g.col_payoff(a, b));
    }
  };
  play(16);  // warm-up
  EXPECT_EQ(allocs_during([&] { play(1000); }), 0u);
}

}  // namespace
}  // namespace tussle
