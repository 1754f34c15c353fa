// Causal span tracing: tracer mechanics (stack, registry, merge), the
// Chrome trace-event exporter (golden output + JSON validity), the text
// reports, and the end-to-end determinism contract — a network scenario run
// through the sweep engine must export byte-identical traces at any --jobs.
#include "sim/span.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "core/sweep.hpp"
#include "econ/value_flow.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"

namespace tussle::sim {
namespace {

// ------------------------------------------------------- tracer mechanics --

TEST(SpanTracer, BeginEndRecordsInterval) {
  SpanTracer t;
  const SpanId id = t.begin(SimTime::millis(1), "net.node", "hop", {{"node", 3}});
  EXPECT_EQ(id, 1u);
  t.end(id, SimTime::millis(4));
  ASSERT_EQ(t.size(), 1u);
  const Span& s = t.spans()[0];
  EXPECT_EQ(s.parent, kNoSpan);
  EXPECT_EQ(s.start, SimTime::millis(1));
  EXPECT_EQ(s.end, SimTime::millis(4));
  EXPECT_TRUE(s.closed);
  EXPECT_EQ(s.component, "net.node");
  EXPECT_EQ(s.name, "hop");
  ASSERT_EQ(s.attrs.size(), 1u);
  EXPECT_EQ(s.attrs[0].key, "node");
}

TEST(SpanTracer, IdsAreDenseCreationOrder) {
  SpanTracer t;
  EXPECT_EQ(t.begin(SimTime::zero(), "a", "x"), 1u);
  EXPECT_EQ(t.begin(SimTime::zero(), "a", "y"), 2u);
  EXPECT_EQ(t.instant(SimTime::zero(), "a", "z"), 3u);
}

TEST(SpanTracer, StackEstablishesParentage) {
  SpanTracer t;
  const SpanId outer = t.begin(SimTime::zero(), "a", "outer");
  t.push(outer);
  const SpanId inner = t.begin(SimTime::zero(), "a", "inner");
  t.pop();
  const SpanId sibling = t.begin(SimTime::zero(), "a", "sibling");
  EXPECT_EQ(t.spans()[inner - 1].parent, outer);
  EXPECT_EQ(t.spans()[sibling - 1].parent, kNoSpan);
}

TEST(SpanTracer, BeginUnderExplicitParent) {
  SpanTracer t;
  const SpanId a = t.begin(SimTime::zero(), "a", "a");
  const SpanId b = t.begin_under(a, SimTime::zero(), "a", "b");
  EXPECT_EQ(t.spans()[b - 1].parent, a);
}

TEST(SpanTracer, InstantIsClosedZeroLength) {
  SpanTracer t;
  const SpanId id = t.instant(SimTime::millis(2), "econ.ledger", "transfer");
  const Span& s = t.spans()[id - 1];
  EXPECT_TRUE(s.closed);
  EXPECT_EQ(s.start, s.end);
  // The no-time overload stamps the last observed sim time.
  const SpanId later = t.instant("econ.ledger", "transfer");
  EXPECT_EQ(t.spans()[later - 1].start, SimTime::millis(2));
}

TEST(SpanTracer, AnnotateAppendsAndToleratesBadIds) {
  SpanTracer t;
  const SpanId id = t.begin(SimTime::zero(), "a", "x");
  t.annotate(id, {"action", "accept"});
  ASSERT_EQ(t.spans()[0].attrs.size(), 1u);
  EXPECT_EQ(t.spans()[0].attrs[0].key, "action");
  t.annotate(kNoSpan, {"k", 1});  // no-op, must not crash
  t.annotate(99, {"k", 1});       // unknown id, same
  EXPECT_EQ(t.size(), 1u);
}

TEST(SpanTracer, FlowSpanCreatedOncePerFlow) {
  SpanTracer t;
  const SpanId f1 = t.flow_span(SimTime::millis(1), 7);
  EXPECT_EQ(t.flow_span(SimTime::millis(9), 7), f1);
  EXPECT_NE(t.flow_span(SimTime::millis(9), 8), f1);
  EXPECT_EQ(t.size(), 2u);
}

TEST(SpanTracer, PacketSpanLifecycle) {
  SpanTracer t;
  const SpanId p = t.packet_span(SimTime::millis(1), /*uid=*/42, /*flow=*/7);
  EXPECT_EQ(t.find_packet(42), p);
  const SpanId flow = t.spans()[p - 1].parent;
  ASSERT_NE(flow, kNoSpan);
  EXPECT_EQ(t.spans()[flow - 1].name, "flow");

  t.end_packet(42, SimTime::millis(5));
  EXPECT_EQ(t.find_packet(42), kNoSpan);  // registry entry retired
  EXPECT_TRUE(t.spans()[p - 1].closed);
  // The flow span stretches to cover its longest-lived packet.
  EXPECT_TRUE(t.spans()[flow - 1].closed);
  EXPECT_EQ(t.spans()[flow - 1].end, SimTime::millis(5));

  t.end_packet(42, SimTime::millis(9));  // double-end is a no-op
  EXPECT_EQ(t.spans()[p - 1].end, SimTime::millis(5));
}

TEST(SpanTracer, FlowZeroPacketsRootTheirOwnTree) {
  SpanTracer t;
  const SpanId p = t.packet_span(SimTime::zero(), /*uid=*/1, /*flow=*/0);
  EXPECT_EQ(t.spans()[p - 1].parent, kNoSpan);
  EXPECT_EQ(t.size(), 1u);  // no flow span materialized
}

TEST(SpanTracer, MergeRemapsIdsByFixedOffset) {
  SpanTracer a;
  a.begin(SimTime::millis(1), "a", "first");

  SpanTracer b;
  const SpanId outer = b.begin(SimTime::millis(2), "b", "outer");
  b.push(outer);
  b.begin(SimTime::millis(3), "b", "inner");
  b.pop();

  a.merge(b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.spans()[1].id, 2u);
  EXPECT_EQ(a.spans()[1].parent, kNoSpan);  // b's root stays a root
  EXPECT_EQ(a.spans()[2].id, 3u);
  EXPECT_EQ(a.spans()[2].parent, 2u);  // b's parent link remapped
  EXPECT_EQ(a.last_time(), SimTime::millis(3));
}

TEST(ScopedSpan, NullTracerIsSafeAndInert) {
  ScopedSpan s(nullptr, SimTime::zero(), "a", "x", {{"k", 1}});
  EXPECT_EQ(s.id(), kNoSpan);
  s.annotate({"k", 2});  // must not crash
}

TEST(ScopedSpan, PushesPopsAndEndsAtLastTime) {
  SpanTracer t;
  {
    ScopedSpan outer(&t, SimTime::millis(1), "a", "outer");
    EXPECT_EQ(t.current(), outer.id());
    t.instant(SimTime::millis(4), "a", "tick");  // advances last_time()
  }
  EXPECT_EQ(t.current(), kNoSpan);
  EXPECT_TRUE(t.spans()[0].closed);
  EXPECT_EQ(t.spans()[0].end, SimTime::millis(4));
}

// ------------------------------------------------------------- exporters ---

/// The exact Chrome trace for a tiny hand-built flow: one flow span, one
/// packet, one filter decision. Pinning the bytes pins the contract the CI
/// artifact and the cross---jobs comparison both rely on.
TEST(ChromeTrace, GoldenSmallTree) {
  SpanTracer t;
  t.flow_span(SimTime::millis(1), 7);
  const SpanId p = t.packet_span(SimTime::millis(1), 42, 7);
  t.push(p);
  t.instant(SimTime::millis(2), "net.filter", "decision", {{"action", "accept"}});
  t.pop();
  t.end_packet(42, SimTime::millis(3));

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"flow 7\"}},"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1000,\"dur\":2000,"
      "\"name\":\"flow\",\"cat\":\"net.flow\","
      "\"args\":{\"span\":1,\"parent\":0,\"flow\":7}},"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1000,\"dur\":2000,"
      "\"name\":\"packet\",\"cat\":\"net.packet\","
      "\"args\":{\"span\":2,\"parent\":1,\"uid\":42,\"flow\":7}},"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":2000,\"dur\":0,"
      "\"name\":\"decision\",\"cat\":\"net.filter\","
      "\"args\":{\"span\":3,\"parent\":2,\"action\":\"accept\"}}"
      "]}";
  EXPECT_EQ(to_chrome_trace(t.spans()), expected);
}

TEST(ChromeTrace, OpenSpansExportZeroLength) {
  SpanTracer t;
  t.begin(SimTime::millis(5), "a", "never-ended");
  const std::string json = to_chrome_trace(t.spans());
  EXPECT_NE(json.find("\"ts\":5000,\"dur\":0"), std::string::npos);
}

/// Minimal recursive-descent JSON acceptor: enough grammar to reject the
/// malformed output a buggy writer would produce (trailing commas, bare
/// keys, unbalanced braces). Returns true iff `s` is one valid JSON value.
class JsonChecker {
 public:
  static bool valid(const std::string& s) {
    JsonChecker c{s};
    c.ws();
    return c.value() && (c.ws(), c.i_ == s.size());
  }

 private:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool value() {
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return lit("true");
      case 'f': return lit("false");
      case 'n': return lit("null");
      default: return number();
    }
  }
  bool object() {
    ++i_;  // '{'
    ws();
    if (peek('}')) return true;
    while (true) {
      ws();
      if (!string()) return false;
      ws();
      if (!eat(':')) return false;
      ws();
      if (!value()) return false;
      ws();
      if (peek('}')) return true;
      if (!eat(',')) return false;
    }
  }
  bool array() {
    ++i_;  // '['
    ws();
    if (peek(']')) return true;
    while (true) {
      ws();
      if (!value()) return false;
      ws();
      if (peek(']')) return true;
      if (!eat(',')) return false;
    }
  }
  bool string() {
    if (!eat('"')) return false;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') ++i_;
      ++i_;
    }
    return eat('"');
  }
  bool number() {
    const std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) || s_[i_] == '.' ||
            s_[i_] == 'e' || s_[i_] == 'E' || s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    return i_ > start;
  }
  bool lit(std::string_view w) {
    if (s_.compare(i_, w.size(), w) != 0) return false;
    i_ += w.size();
    return true;
  }
  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) ++i_;
  }
  bool peek(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool eat(char c) { return peek(c); }

  const std::string& s_;
  std::size_t i_ = 0;
};

TEST(JsonChecker, SelfTest) {
  EXPECT_TRUE(JsonChecker::valid("{\"a\":[1,2.5,-3e2,\"s\",true,null],\"b\":{}}"));
  EXPECT_FALSE(JsonChecker::valid("{\"a\":1,}"));
  EXPECT_FALSE(JsonChecker::valid("{\"a\":}"));
  EXPECT_FALSE(JsonChecker::valid("{\"a\":1"));
  EXPECT_FALSE(JsonChecker::valid("{a:1}"));
}

TEST(SpanTreeReport, IndentsByDepthAndShowsAttrs) {
  SpanTracer t;
  const SpanId p = t.packet_span(SimTime::millis(1), 42, 7);
  t.push(p);
  t.instant(SimTime::millis(2), "net.filter", "decision", {{"action", "drop"}});
  t.pop();
  t.end_packet(42, SimTime::millis(3));

  const std::string report = span_tree_report(t.spans());
  EXPECT_NE(report.find("[net.flow] flow"), std::string::npos);
  EXPECT_NE(report.find("\n  [net.packet] packet"), std::string::npos);
  EXPECT_NE(report.find("\n    [net.filter] decision"), std::string::npos);
  EXPECT_NE(report.find("action=drop"), std::string::npos);
}

TEST(ExplainFlow, UnknownFlowSaysSo) {
  SpanTracer t;
  EXPECT_EQ(explain_flow(t.spans(), 9), "no spans recorded for flow 9\n");
}

// ------------------------------------------ end-to-end network scenario ----

using net::Address;
using net::AsId;
using net::Packet;

Address addr(AsId as, std::uint32_t sub, std::uint32_t host) {
  return Address{.provider = as, .subscriber = sub, .host = host};
}

/// Two hosts with a router in between, span-traced: the smallest topology
/// that exercises flow/packet spans, hop spans, a filter decision, and a
/// ledger transfer hanging off it.
struct TracedTriangle {
  sim::Simulator sim{11};
  net::Network net{sim};
  econ::Ledger ledger;
  net::NodeId a, r, b;
  Address addr_a = addr(1, 1, 1);
  Address addr_b = addr(1, 2, 1);

  explicit TracedTriangle(SpanTracer* spans) {
    net.set_spans(spans);
    ledger.set_span_tracer(spans);
    a = net.add_node(1);
    r = net.add_node(1);
    b = net.add_node(1);
    net.connect(a, r, 10e6, Duration::millis(1));
    net.connect(r, b, 10e6, Duration::millis(1));
    net.node(a).add_address(addr_a);
    net.node(b).add_address(addr_b);
    net.node(a).forwarding().set_default_route(0);
    net.node(r).forwarding().set_prefix_route(net::prefix_of(addr_a), 0);
    net.node(r).forwarding().set_prefix_route(net::prefix_of(addr_b), 1);
    net.node(b).forwarding().set_default_route(0);
    // The router tolls every web packet it forwards — the settlement must
    // land under the filter's decision span.
    net.node(r).add_filter({"toll", /*disclosed=*/true, [this](const Packet& p) {
                              if (p.proto == net::AppProto::kWeb) {
                                ledger.transfer("user:1", "isp:r", 0.5, "toll");
                              }
                              return net::FilterDecision::accept();
                            }});
  }

  void send_web(net::FlowId flow) {
    Packet p;
    p.src = addr_a;
    p.dst = addr_b;
    p.proto = net::AppProto::kWeb;
    p.flow = flow;
    p.size_bytes = 1000;
    net.node(a).originate(std::move(p));
  }
};

TEST(SpanIntegration, LedgerTransferNestsUnderFilterDecision) {
  SpanTracer spans;
  TracedTriangle t(&spans);
  t.send_web(1);
  t.sim.run();

  // flow → packet → hop(a) → hop(r) → decision → transfer, then deliver.
  const Span* decision = nullptr;
  const Span* transfer = nullptr;
  const Span* deliver = nullptr;
  for (const Span& s : spans.spans()) {
    if (s.name == "decision") decision = &s;
    if (s.component == "econ.ledger" && s.name == "transfer") transfer = &s;
    if (s.name == "deliver") deliver = &s;
  }
  ASSERT_NE(decision, nullptr);
  ASSERT_NE(transfer, nullptr);
  ASSERT_NE(deliver, nullptr);
  EXPECT_EQ(transfer->parent, decision->id);
  EXPECT_EQ(t.ledger.log().size(), 1u);
  EXPECT_EQ(t.ledger.log()[0].span, transfer->parent);  // the causing decision

  // The packet span is closed at delivery and the registry entry retired
  // (uids are per-network sequence numbers; the first packet draws 1).
  EXPECT_EQ(spans.find_packet(1), kNoSpan);
  const std::string report = explain_flow(spans.spans(), 1);
  EXPECT_NE(report.find("1 packet(s): 1 delivered"), std::string::npos);
  EXPECT_NE(report.find("user:1 -> isp:r"), std::string::npos);
  EXPECT_NE(report.find("caused by: net.filter decision"), std::string::npos);
}

TEST(SpanIntegration, DetachedTracerRecordsNothing) {
  SpanTracer spans;
  TracedTriangle t(nullptr);
  t.send_web(1);
  t.sim.run();
  EXPECT_TRUE(spans.empty());
  EXPECT_EQ(t.net.counters().delivered.value(), 1);
  EXPECT_EQ(t.ledger.log()[0].span, kNoSpan);
}

TEST(SpanIntegration, FilterDropSpanCarriesReason) {
  // The drop reason is built only for an attached tracer; attached, it must
  // still name the filter's verdict.
  for (const bool traced : {true, false}) {
    SpanTracer spans;
    TracedTriangle t(traced ? &spans : nullptr);
    t.net.node(t.r).add_filter({"fw", /*disclosed=*/false, [](const Packet& p) {
                                  return p.proto == net::AppProto::kWeb
                                             ? net::FilterDecision::drop("fw:no-web")
                                             : net::FilterDecision::accept();
                                }});
    t.send_web(1);
    t.sim.run();
    EXPECT_EQ(t.net.counters().dropped_filter.value(), 1);
    const Span* drop = nullptr;
    for (const Span& s : spans.spans()) {
      if (s.component == "net.node" && s.name == "drop") drop = &s;
    }
    if (!traced) {
      EXPECT_TRUE(spans.empty());
      continue;
    }
    ASSERT_NE(drop, nullptr);
    ASSERT_FALSE(drop->attrs.empty());
    EXPECT_EQ(drop->attrs[0].key, "reason");
    EXPECT_EQ(std::get<std::string>(drop->attrs[0].value), "filter:fw:no-web");
  }
}

/// The sweep-level determinism contract: a replicated scenario exported at
/// --jobs 1 and --jobs 8 must produce byte-identical Chrome traces, because
/// per-run tracers merge in run-index order whatever the schedule was.
std::string sweep_trace(std::size_t jobs) {
  core::ScenarioSpec spec;
  spec.name = "span-determinism";
  spec.replicas = 6;
  spec.body = [](core::RunContext& ctx) {
    TracedTriangle t(ctx.spans());
    // Vary per-run content so a mis-ordered merge cannot accidentally agree.
    const auto flows = 1 + ctx.run_index() % 3;
    for (net::FlowId f = 1; f <= flows; ++f) t.send_web(f);
    ctx.add_events(t.sim.run());
    ctx.put("delivered", static_cast<double>(t.net.counters().delivered.value()));
  };

  core::SweepOptions opts;
  opts.base_seed = 5;
  opts.jobs = jobs;
  opts.spans = true;
  const core::SweepResult res = core::run_sweep(spec, opts);

  SpanTracer merged;
  for (const auto& r : res.runs) {
    if (r.spans) merged.merge(*r.spans);
  }
  EXPECT_GT(merged.size(), 0u);
  return to_chrome_trace(merged.spans());
}

TEST(SpanIntegration, ChromeTraceBitIdenticalAcrossJobs) {
  const std::string serial = sweep_trace(1);
  const std::string parallel = sweep_trace(8);
  EXPECT_EQ(serial, parallel);
  EXPECT_TRUE(JsonChecker::valid(serial));
}

TEST(SpanIntegration, SweepWithoutSpansLeavesRunsNull) {
  core::ScenarioSpec spec;
  spec.name = "no-spans";
  spec.body = [](core::RunContext& ctx) { EXPECT_EQ(ctx.spans(), nullptr); };
  const core::SweepResult res = core::run_sweep(spec, core::SweepOptions{});
  ASSERT_EQ(res.runs.size(), 1u);
  EXPECT_EQ(res.runs[0].spans, nullptr);
}

}  // namespace
}  // namespace tussle::sim
