#include "policy/packet_adapter.hpp"

#include <gtest/gtest.h>

namespace tussle::policy {
namespace {

net::Packet packet(net::AppProto proto, bool encrypted = false) {
  net::Packet p;
  p.src = net::Address{.provider = 1, .subscriber = 1, .host = 5};
  p.dst = net::Address{.provider = 2, .subscriber = 1, .host = 9};
  p.proto = proto;
  p.size_bytes = 1200;
  p.encrypted = encrypted;
  return p;
}

TEST(PacketAdapter, ContextCarriesObservableFields) {
  Context c = context_for_packet(packet(net::AppProto::kVoip));
  EXPECT_EQ(std::get<std::string>(c.get("proto")), "voip");
  EXPECT_DOUBLE_EQ(std::get<double>(c.get("size")), 1200.0);
  EXPECT_DOUBLE_EQ(std::get<double>(c.get("src_as")), 1.0);
  EXPECT_DOUBLE_EQ(std::get<double>(c.get("dst_host")), 9.0);
  EXPECT_FALSE(std::get<bool>(c.get("opaque")));
  // Every slot holds its own field (the packet's values are distinct).
  EXPECT_TRUE(std::get<bool>(c.get("payload_visible")));
  EXPECT_FALSE(std::get<bool>(c.get("encrypted")));
  EXPECT_EQ(std::get<std::string>(c.get("tos")), "best-effort");
  EXPECT_DOUBLE_EQ(std::get<double>(c.get("dst_as")), 2.0);
  EXPECT_DOUBLE_EQ(std::get<double>(c.get("src_host")), 5.0);
  EXPECT_DOUBLE_EQ(std::get<double>(c.get("ttl")), 64.0);
  EXPECT_FALSE(std::get<bool>(c.get("has_source_route")));
}

TEST(PacketAdapter, EncryptionCollapsesProtoInContext) {
  Context c = context_for_packet(packet(net::AppProto::kVoip, /*encrypted=*/true));
  EXPECT_EQ(std::get<std::string>(c.get("proto")), "unknown");
  EXPECT_TRUE(std::get<bool>(c.get("opaque")));
  EXPECT_FALSE(std::get<bool>(c.get("payload_visible")));
}

TEST(PacketAdapter, FilterEnforcesDeny) {
  PolicySet ps(standard_packet_ontology(), Effect::kPermit);
  ps.add("no-p2p", Effect::kDeny, "proto == 'p2p'", "application");
  auto f = make_packet_filter("isp-dpi", false, std::move(ps));
  EXPECT_EQ(f.fn(packet(net::AppProto::kP2p)).action, net::FilterAction::kDrop);
  EXPECT_EQ(f.fn(packet(net::AppProto::kWeb)).action, net::FilterAction::kAccept);
  EXPECT_FALSE(f.disclosed);
  EXPECT_EQ(f.name, "isp-dpi");
}

TEST(PacketAdapter, DropReasonNamesRule) {
  PolicySet ps(standard_packet_ontology(), Effect::kPermit);
  ps.add("no-p2p", Effect::kDeny, "proto == 'p2p'");
  auto f = make_packet_filter("fw", true, std::move(ps));
  auto d = f.fn(packet(net::AppProto::kP2p));
  EXPECT_EQ(d.reason, "fw:no-p2p");
}

TEST(PacketAdapter, DefaultDenyNamesDefault) {
  PolicySet ps(standard_packet_ontology(), Effect::kDeny);
  auto f = make_packet_filter("fw", true, std::move(ps));
  EXPECT_EQ(f.fn(packet(net::AppProto::kWeb)).reason, "fw:default");
}

TEST(PacketAdapter, RedirectResolvedThroughResolver) {
  PolicySet ps(standard_packet_ontology(), Effect::kPermit);
  ps.add("grab-mail", Effect::kRedirect, "proto == 'mail'", "application", "mail-trap");
  const net::Address trap{.provider = 9, .subscriber = 9, .host = 9};
  auto f = make_packet_filter("isp", false, std::move(ps),
                              [&](const std::string& label) -> std::optional<net::Address> {
                                if (label == "mail-trap") return trap;
                                return std::nullopt;
                              });
  auto d = f.fn(packet(net::AppProto::kMail));
  EXPECT_EQ(d.action, net::FilterAction::kRedirect);
  ASSERT_TRUE(d.redirect_to.has_value());
  EXPECT_EQ(*d.redirect_to, trap);
}

TEST(PacketAdapter, UnresolvableRedirectFailsClosed) {
  PolicySet ps(standard_packet_ontology(), Effect::kPermit);
  ps.add("grab-mail", Effect::kRedirect, "proto == 'mail'", "application", "nowhere");
  auto f = make_packet_filter("isp", false, std::move(ps));
  EXPECT_EQ(f.fn(packet(net::AppProto::kMail)).action, net::FilterAction::kDrop);
}

TEST(PacketAdapter, EncryptedTrafficEvadesAppPolicyButNotOpacityPolicy) {
  // §VI-A escalation, in policy terms: the app rule stops matching once the
  // packet is encrypted, but a provider can still write an opacity rule —
  // and that rule is visible for what it is.
  PolicySet ps(standard_packet_ontology(), Effect::kPermit);
  ps.add("no-p2p", Effect::kDeny, "proto == 'p2p'", "application");
  ps.add("no-hiding", Effect::kDeny, "opaque", "security");
  auto f = make_packet_filter("isp", false, std::move(ps));
  auto d = f.fn(packet(net::AppProto::kP2p, /*encrypted=*/true));
  EXPECT_EQ(d.action, net::FilterAction::kDrop);
  EXPECT_EQ(d.reason, "isp:no-hiding");  // not the p2p rule
}

TEST(PacketAdapter, StandardOntologyFingerprintIsStable) {
  // Policies compile against their own copy of the ontology; packet contexts
  // bind another. The content fingerprint is what lets them meet.
  EXPECT_EQ(standard_packet_ontology().fingerprint(), standard_packet_ontology().fingerprint());
  Context c = context_for_packet(packet(net::AppProto::kWeb));
  EXPECT_EQ(c.fingerprint(), standard_packet_ontology().fingerprint());
  for (std::size_t s = 0; s < standard_packet_ontology().size(); ++s) EXPECT_TRUE(c.bound(s)) << s;
}

TEST(PacketAdapter, StandardOntologyTagsSpaces) {
  auto o = standard_packet_ontology();
  EXPECT_EQ(o.space_of("proto"), "application");
  EXPECT_EQ(o.space_of("tos"), "qos");
  EXPECT_EQ(o.space_of("size"), "economics");
  EXPECT_GE(o.size(), 10u);
}

}  // namespace
}  // namespace tussle::policy
