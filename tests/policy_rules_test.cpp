#include "policy/rules.hpp"

#include <gtest/gtest.h>

namespace tussle::policy {
namespace {

// A Context binds its ontology by reference, so the ontology outlives them.
const Ontology& onto() {
  static const Ontology o = [] {
    Ontology d;
    d.declare("proto", ValueType::kString, "application");
    d.declare("tos", ValueType::kString, "qos");
    d.declare("size", ValueType::kNumber, "economics");
    d.declare("encrypted", ValueType::kBool, "security");
    return d;
  }();
  return o;
}

Context web_ctx() {
  Context c(onto());
  c.set("proto", "web");
  c.set("tos", "best-effort");
  c.set("size", 500.0);
  c.set("encrypted", false);
  return c;
}

TEST(PolicySet, DefaultAppliesWhenNoRuleMatches) {
  PolicySet ps(onto(), Effect::kDeny);
  auto d = ps.evaluate(web_ctx());
  EXPECT_EQ(d.effect, Effect::kDeny);
  EXPECT_TRUE(d.rule_name.empty());
}

TEST(PolicySet, FirstMatchWins) {
  PolicySet ps(onto(), Effect::kDeny);
  ps.add("allow-web", Effect::kPermit, "proto == 'web'");
  ps.add("deny-big", Effect::kDeny, "size > 100");
  auto d = ps.evaluate(web_ctx());
  EXPECT_EQ(d.effect, Effect::kPermit);
  EXPECT_EQ(d.rule_name, "allow-web");
}

TEST(PolicySet, OrderMatters) {
  PolicySet ps(onto(), Effect::kPermit);
  ps.add("deny-big", Effect::kDeny, "size > 100");
  ps.add("allow-web", Effect::kPermit, "proto == 'web'");
  EXPECT_EQ(ps.evaluate(web_ctx()).effect, Effect::kDeny);
}

TEST(PolicySet, RedirectCarriesTarget) {
  PolicySet ps(onto(), Effect::kPermit);
  ps.add("capture-mail", Effect::kRedirect, "proto == 'mail'", "application", "isp-mail");
  Context c = web_ctx();
  c.set("proto", "mail");
  auto d = ps.evaluate(c);
  EXPECT_EQ(d.effect, Effect::kRedirect);
  EXPECT_EQ(d.redirect_target, "isp-mail");
}

TEST(PolicySet, RedirectWithoutTargetRejected) {
  PolicySet ps(onto(), Effect::kPermit);
  EXPECT_THROW(ps.add("bad", Effect::kRedirect, "true"), PolicyError);
  EXPECT_THROW(PolicySet(onto(), Effect::kRedirect), PolicyError);  // a default has no target
}

TEST(PolicySet, DecisionViewsPointIntoRules) {
  PolicySet ps(onto(), Effect::kPermit);
  ps.add("capture-web", Effect::kRedirect, "proto == 'web'", "application", "isp-proxy");
  const Decision d = ps.evaluate(web_ctx());
  EXPECT_EQ(d.rule, 0u);
  EXPECT_EQ(d.rule_name.data(), ps.rules()[0].name.data());
  EXPECT_EQ(d.redirect_target.data(), ps.rules()[0].redirect_target.data());
  EXPECT_EQ(PolicySet(onto(), Effect::kDeny).evaluate(web_ctx()).rule, Decision::kDefaultRule);
}

TEST(PolicySet, NonBooleanConditionRejected) {
  PolicySet ps(onto(), Effect::kPermit);
  EXPECT_THROW(ps.add("bad", Effect::kDeny, "size + 1"), TypeError);
}

TEST(PolicySet, UndeclaredAttributeRejectedAtAddTime) {
  PolicySet ps(onto(), Effect::kPermit);
  EXPECT_THROW(ps.add("bad", Effect::kDeny, "port == 80"), OntologyError);
}

TEST(PolicySet, RemoveRule) {
  PolicySet ps(onto(), Effect::kPermit);
  ps.add("deny-web", Effect::kDeny, "proto == 'web'");
  EXPECT_EQ(ps.evaluate(web_ctx()).effect, Effect::kDeny);
  EXPECT_TRUE(ps.remove("deny-web"));
  EXPECT_FALSE(ps.remove("deny-web"));
  EXPECT_EQ(ps.evaluate(web_ctx()).effect, Effect::kPermit);
}

TEST(PolicySet, ModularRuleSetHasNoCouplings) {
  PolicySet ps(onto(), Effect::kPermit);
  ps.add("qos-only", Effect::kPermit, "tos == 'premium'", "qos");
  ps.add("app-only", Effect::kDeny, "proto == 'p2p'", "application");
  EXPECT_TRUE(ps.cross_space_couplings().empty());
  EXPECT_DOUBLE_EQ(ps.spillover_index(), 0.0);
}

TEST(PolicySet, CrossSpaceRuleDetected) {
  // The anti-pattern from §IV-A: granting QoS based on what application is
  // running entangles the QoS tussle with the application tussle.
  PolicySet ps(onto(), Effect::kPermit);
  ps.add("qos-by-app", Effect::kPermit, "proto == 'voip' and tos == 'premium'", "qos");
  auto couplings = ps.cross_space_couplings();
  ASSERT_EQ(couplings.size(), 1u);
  EXPECT_EQ(couplings[0].rule_name, "qos-by-app");
  EXPECT_EQ(couplings[0].foreign_space, "application");
  EXPECT_EQ(couplings[0].attribute, "proto");
  EXPECT_DOUBLE_EQ(ps.spillover_index(), 0.5);  // 1 of 2 refs crosses
}

TEST(PolicySet, UntaggedRulesExemptFromAnalysis) {
  PolicySet ps(onto(), Effect::kPermit);
  ps.add("mixed", Effect::kDeny, "proto == 'p2p' and size > 100");
  EXPECT_TRUE(ps.cross_space_couplings().empty());
  EXPECT_DOUBLE_EQ(ps.spillover_index(), 0.0);
}

TEST(PolicySet, SpilloverIndexFullCoupling) {
  PolicySet ps(onto(), Effect::kPermit);
  ps.add("wrong-space", Effect::kDeny, "proto == 'p2p'", "qos");
  EXPECT_DOUBLE_EQ(ps.spillover_index(), 1.0);
}

TEST(Effect, ToString) {
  EXPECT_EQ(to_string(Effect::kPermit), "permit");
  EXPECT_EQ(to_string(Effect::kDeny), "deny");
  EXPECT_EQ(to_string(Effect::kRedirect), "redirect");
}

}  // namespace
}  // namespace tussle::policy
