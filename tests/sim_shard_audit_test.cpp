#include "sim/shard_audit.hpp"

#include <gtest/gtest.h>

#include "econ/value_flow.hpp"
#include "net/network.hpp"

namespace tussle {
namespace {

net::Address addr(net::AsId as, std::uint32_t sub, std::uint32_t host) {
  return net::Address{.provider = as, .subscriber = sub, .host = host};
}

/// Two nodes in different ASes joined by one (shared, cross-AS) link —
/// the smallest topology with a shard boundary.
struct TwoAs {
  sim::Simulator sim;
  sim::ShardAuditor audit;
  net::Network net{sim};
  net::NodeId a, b;
  net::Address addr_a = addr(1, 1, 1);
  net::Address addr_b = addr(2, 1, 1);

  explicit TwoAs(bool audited = true) {
    if (audited) sim.set_auditor(&audit);
    a = net.add_node(1);
    b = net.add_node(2);
    net.connect(a, b, 10e6, sim::Duration::millis(1));
    net.node(a).add_address(addr_a);
    net.node(b).add_address(addr_b);
    net.node(a).forwarding().set_default_route(0);
    net.node(b).forwarding().set_default_route(0);
  }

  net::Packet make(net::Address from, net::Address to) {
    net::Packet p;
    p.src = from;
    p.dst = to;
    p.proto = net::AppProto::kWeb;
    p.size_bytes = 1000;
    return p;
  }
};

TEST(ShardAudit, CatchesCrossShardMutatingHandler) {
  TwoAs t;
  // A handler running as AS 1 (it originates from node a, claiming shard 1)
  // then reaches across the boundary and mutates node b's filter chain —
  // exactly the synchronous cross-shard write PDES forbids.
  t.sim.schedule(sim::Duration::millis(1), sim::TaskTag{"test", "bad-handler"}, [&] {
    t.net.node(t.a).originate(t.make(t.addr_a, t.addr_b));
    t.net.node(t.b).add_filter(
        {"rogue", true, [](const net::Packet&) { return net::FilterDecision::accept(); }});
  });
  EXPECT_THROW(t.sim.run(), sim::ShardViolation);
  ASSERT_EQ(t.audit.violations().size(), 1u);
  const sim::ShardAccess& v = t.audit.violations().front();
  EXPECT_EQ(v.component, "net.node");
  EXPECT_EQ(v.owner, 2u);
  EXPECT_EQ(v.accessor, 1u);
  EXPECT_EQ(v.what, "add_filter");
  EXPECT_EQ(v.event_kind, "bad-handler");
  // The causal report names the offending mutator and both shards.
  const std::string report = t.audit.describe(v);
  EXPECT_NE(report.find("add_filter"), std::string::npos);
  EXPECT_NE(report.find("owned by shard 2"), std::string::npos);
  EXPECT_NE(report.find("from shard 1"), std::string::npos);
}

TEST(ShardAudit, CollectsInsteadOfThrowingWhenFailFastOff) {
  TwoAs t;
  t.audit.set_fail_fast(false);
  t.sim.schedule(sim::Duration::millis(1), sim::TaskTag{"test", "bad-handler"}, [&] {
    t.net.node(t.a).originate(t.make(t.addr_a, t.addr_b));
    t.net.node(t.b).add_filter(
        {"rogue", true, [](const net::Packet&) { return net::FilterDecision::accept(); }});
  });
  EXPECT_NO_THROW(t.sim.run());
  EXPECT_EQ(t.audit.violations().size(), 1u);
}

TEST(ShardAudit, CrossShardEntryIsAViolationToo) {
  TwoAs t;
  // Claiming shard 1, then synchronously running node b's receive path is a
  // cross-shard *entry*, flagged even though the first touch is not a
  // declared mutator.
  t.sim.schedule(sim::Duration::millis(1), sim::TaskTag{"test", "bad-entry"}, [&] {
    t.net.node(t.a).originate(t.make(t.addr_a, t.addr_b));
    t.net.node(t.b).receive(t.make(t.addr_a, t.addr_b));
  });
  EXPECT_THROW(t.sim.run(), sim::ShardViolation);
  ASSERT_EQ(t.audit.violations().size(), 1u);
  EXPECT_EQ(t.audit.violations().front().what, "enter");
}

TEST(ShardAudit, CleanTwoAsDeliveryPasses) {
  TwoAs t;
  int delivered = 0;
  // set_local_handler is an audited mutator, but it runs at setup — outside
  // any event — which the auditor allows.
  t.net.node(t.b).set_local_handler([&](const net::Packet&) { ++delivered; });
  t.sim.schedule(sim::Duration::millis(1), sim::TaskTag{"test", "inject"},
                 [&] { t.net.node(t.a).originate(t.make(t.addr_a, t.addr_b)); });
  EXPECT_NO_THROW(t.sim.run());
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(t.audit.violations().empty());
  EXPECT_GT(t.audit.events_audited(), 0u);
  EXPECT_GT(t.audit.mutations_checked(), 0u);
  EXPECT_GT(t.audit.claims(), 0u);
  // Both ASes registered; the cross-AS link and merge sinks are shared.
  EXPECT_EQ(t.audit.shard_count(), 2u);
}

TEST(ShardAudit, DisabledAuditorIsInert) {
  TwoAs t(/*audited=*/false);
  int delivered = 0;
  t.net.node(t.b).set_local_handler([&](const net::Packet&) { ++delivered; });
  t.sim.schedule(sim::Duration::millis(1), sim::TaskTag{"test", "inject"}, [&] {
    t.net.node(t.a).originate(t.make(t.addr_a, t.addr_b));
    // Without an auditor this cross-shard write goes unchecked (the hook
    // is a null-pointer branch), so the run must behave exactly as before
    // the auditor existed.
    t.net.node(t.b).add_filter(
        {"rogue", true, [](const net::Packet&) { return net::FilterDecision::accept(); }});
  });
  EXPECT_EQ(t.net.auditor(), nullptr);
  EXPECT_NO_THROW(t.sim.run());
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(t.audit.events_audited(), 0u);
  EXPECT_EQ(t.audit.mutations_checked(), 0u);
}

TEST(ShardAudit, ControlEventIsTalliedNotChecked) {
  TwoAs t;
  // Failure injection legitimately touches the whole topology; declaring
  // the event as control work turns the checks into a tally the report
  // attributes to the named barrier phase.
  t.sim.schedule(sim::Duration::millis(1), sim::TaskTag{"test", "failure"}, [&] {
    t.sim.auditor()->declare_control_event("link-failure");
    t.net.node(t.b).add_filter(
        {"quarantine", true,
         [](const net::Packet&) { return net::FilterDecision::drop("failure drill"); }});
  });
  EXPECT_NO_THROW(t.sim.run());
  EXPECT_TRUE(t.audit.violations().empty());
  const std::string json = t.audit.report_json();
  EXPECT_NE(json.find("link-failure"), std::string::npos);
  EXPECT_NE(json.find("net.node/add_filter"), std::string::npos);
}

TEST(ShardAudit, SharedLedgerIsTalliedPerShard) {
  TwoAs t;
  econ::Ledger ledger;
  ledger.set_auditor(&t.audit);
  // A transfer from inside AS 1's event: tallied under shard 1, no failure
  // — the ledger is declared shared by design.
  t.sim.schedule(sim::Duration::millis(1), sim::TaskTag{"test", "pay"}, [&] {
    t.net.node(t.a).originate(t.make(t.addr_a, t.addr_b));
    ledger.transfer("user:1", "isp:2", 1.0, "transit");
  });
  EXPECT_NO_THROW(t.sim.run());
  EXPECT_TRUE(t.audit.violations().empty());
  const std::string json = t.audit.report_json();
  EXPECT_NE(json.find("econ.ledger"), std::string::npos);
}

TEST(ShardAudit, ReportIsDeterministicAcrossRuns) {
  auto run_once = [] {
    TwoAs t;
    int delivered = 0;
    t.net.node(t.b).set_local_handler([&](const net::Packet&) { ++delivered; });
    t.sim.schedule(sim::Duration::millis(1), sim::TaskTag{"test", "inject"},
                   [&] { t.net.node(t.a).originate(t.make(t.addr_a, t.addr_b)); });
    t.sim.run();
    return t.audit.report_json();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// Regression: the shard context must close when run() drains. Benches are
// phase-structured — setup, run(), more setup, run() — and the second setup
// batch used to inherit the *last event's* claimed shard and time, turning
// legal topology-wide wiring into phantom violations.
TEST(ShardAudit, SetupBetweenRunsIsNotInEvent) {
  TwoAs t;
  t.sim.schedule(sim::Duration::millis(1), sim::TaskTag{"test", "inject"},
                 [&] { t.net.node(t.a).originate(t.make(t.addr_a, t.addr_b)); });
  t.sim.run();
  // Phase-two setup touches both shards back to back, outside any event.
  EXPECT_NO_THROW({
    t.net.node(t.a).originate(t.make(t.addr_a, t.addr_b));
    t.net.node(t.b).add_filter(
        {"phase2", true, [](const net::Packet&) { return net::FilterDecision::accept(); }});
  });
  EXPECT_NO_THROW(t.sim.run());
  EXPECT_TRUE(t.audit.violations().empty());
}

TEST(ShardAudit, MergeFoldsTallies) {
  sim::ShardAuditor total;
  for (int i = 0; i < 2; ++i) {
    TwoAs t;
    t.sim.schedule(sim::Duration::millis(1), sim::TaskTag{"test", "inject"},
                   [&] { t.net.node(t.a).originate(t.make(t.addr_a, t.addr_b)); });
    t.sim.run();
    total.merge(t.audit);
  }
  EXPECT_GT(total.events_audited(), 0u);
  EXPECT_EQ(total.shard_count(), 2u);
  // Two runs' packet-id tallies folded: the report shows the sink once,
  // with the counts summed, not duplicated entries.
  const std::string json = total.report_json();
  const std::size_t first = json.find("net.packet_ids");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(json.find("net.packet_ids", first + 1), std::string::npos);
}

// Regression for the shared-state fixes that rode along with the auditor:
// each Simulator now owns its Tracer, so two concurrent simulations can
// never interleave records through the process-global instance.
TEST(ShardAudit, SimulatorsOwnDistinctTracers) {
  sim::Simulator s1, s2;
  EXPECT_NE(&s1.tracer(), &s2.tracer());
  EXPECT_NE(&s1.tracer(), &sim::Tracer::global());
  s1.tracer().enable(true);
  EXPECT_TRUE(s1.tracer().enabled());
  EXPECT_FALSE(s2.tracer().enabled());
}

}  // namespace
}  // namespace tussle
