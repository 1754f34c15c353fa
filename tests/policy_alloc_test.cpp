// Heap allocations on the packet-filter path.
//
// This binary replaces the global operator new/delete with counting
// versions, which is why it is its own executable: the counter must see
// every allocation the filter makes and nothing else may depend on it.
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "policy/packet_adapter.hpp"

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

namespace tussle::policy {
namespace {

/// Allocations made while `f` runs (frees are not subtracted).
template <class F>
std::uint64_t allocs_during(F&& f) {
  const std::uint64_t before = g_allocs;
  f();
  return g_allocs - before;
}

net::Packet packet(net::AppProto proto, std::uint32_t size = 1000, net::AsId src_as = 1) {
  net::Packet p;
  p.src = net::Address{.provider = src_as, .subscriber = 1, .host = 5};
  p.dst = net::Address{.provider = 2, .subscriber = 1, .host = 9};
  p.proto = proto;
  p.size_bytes = size;
  return p;
}

/// The six-rule transit policy shape of a firewall on every hop.
net::PacketFilter transit_filter(Effect default_effect) {
  PolicySet ps(standard_packet_ontology(), default_effect);
  ps.add("permit-control", Effect::kPermit, "proto == 'control'", "application");
  ps.add("deny-p2p", Effect::kDeny, "proto == 'p2p'", "application");
  ps.add("deny-dns-big", Effect::kDeny, "proto == 'dns' and size > 512", "application");
  ps.add("cap-premium", Effect::kDeny, "tos == 'premium' and size > 1000", "qos");
  ps.add("deny-opaque-small", Effect::kDeny, "opaque and size < 128", "security");
  ps.add("block-src", Effect::kDeny, "src_as in [3, 7]", "identity");
  // A long filter name puts every deny reason past the small-string buffer.
  return make_packet_filter("transit-firewall-at-as-17", true, std::move(ps));
}

TEST(PolicyAlloc, CountingAllocatorSeesAllocations) {
  // Guards the test itself: a counter that cannot move proves nothing.
  EXPECT_GE(allocs_during([] {
              void* volatile p = ::operator new(64);
              ::operator delete(p);
            }),
            1u);
}

TEST(PolicyAlloc, PacketContextIsHeapFree) {
  const net::Packet p = packet(net::AppProto::kControl);
  (void)context_for_packet(p);  // the first call builds the shared ontology
  bool bound = false;
  EXPECT_EQ(allocs_during([&] { bound = context_for_packet(p).bound(0); }), 0u);
  EXPECT_TRUE(bound);
}

/// Runs the filter once to warm up, then returns the allocations of a
/// second run and its decision.
std::uint64_t decide(const net::PacketFilter& f, const net::Packet& p, net::FilterDecision& d) {
  (void)f.fn(p);
  return allocs_during([&] { d = f.fn(p); });
}

TEST(PolicyAlloc, PermitAndDefaultDecisionsAreHeapFree) {
  const net::PacketFilter f = transit_filter(Effect::kPermit);
  net::FilterDecision d;
  EXPECT_EQ(decide(f, packet(net::AppProto::kControl), d), 0u);  // permit-control
  EXPECT_EQ(d.action, net::FilterAction::kAccept);
  EXPECT_EQ(decide(f, packet(net::AppProto::kWeb), d), 0u);  // no rule: default permit
  EXPECT_EQ(d.action, net::FilterAction::kAccept);
}

TEST(PolicyAlloc, DenyCopiesOnlyItsReason) {
  const net::PacketFilter f = transit_filter(Effect::kPermit);
  net::FilterDecision d;
  EXPECT_LE(decide(f, packet(net::AppProto::kP2p), d), 1u);
  EXPECT_EQ(d.reason, "transit-firewall-at-as-17:deny-p2p");
  EXPECT_LE(decide(f, packet(net::AppProto::kWeb, 1000, /*src_as=*/7), d), 1u);
  EXPECT_EQ(d.reason, "transit-firewall-at-as-17:block-src");
  EXPECT_LE(decide(transit_filter(Effect::kDeny), packet(net::AppProto::kWeb), d), 1u);
  EXPECT_EQ(d.reason, "transit-firewall-at-as-17:default");
}

}  // namespace
}  // namespace tussle::policy
