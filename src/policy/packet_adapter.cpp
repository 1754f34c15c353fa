#include "policy/packet_adapter.hpp"

#include <memory>
#include <vector>

namespace tussle::policy {

namespace {

// Slots of the standard packet ontology: the order in which
// standard_packet_ontology() declares the attributes.
enum Slot : std::size_t {
  kProto,
  kPayloadVisible,
  kOpaque,
  kEncrypted,
  kTos,
  kSize,
  kSrcAs,
  kDstAs,
  kSrcHost,
  kDstHost,
  kTtl,
  kHasSourceRoute,
};

/// The instance every packet context binds to; policies compiled against
/// any standard_packet_ontology() share its fingerprint.
const Ontology& packet_ontology() {
  static const Ontology onto = standard_packet_ontology();
  return onto;
}

}  // namespace

Ontology standard_packet_ontology() {
  Ontology o;
  o.declare("proto", ValueType::kString, "application");
  o.declare("payload_visible", ValueType::kBool, "security");
  o.declare("opaque", ValueType::kBool, "security");
  o.declare("encrypted", ValueType::kBool, "security");
  o.declare("tos", ValueType::kString, "qos");
  o.declare("size", ValueType::kNumber, "economics");
  o.declare("src_as", ValueType::kNumber, "identity");
  o.declare("dst_as", ValueType::kNumber, "identity");
  o.declare("src_host", ValueType::kNumber, "identity");
  o.declare("dst_host", ValueType::kNumber, "identity");
  o.declare("ttl", ValueType::kNumber, "application");
  o.declare("has_source_route", ValueType::kBool, "routing");
  return o;
}

Context context_for_packet(const net::Packet& p) {
  // Every to_string() label fits the small-string buffer: no allocation.
  Context ctx(packet_ontology());
  ctx.set_slot(kProto, net::to_string(p.observable_proto()));
  ctx.set_slot(kPayloadVisible, !p.encrypted);
  ctx.set_slot(kOpaque, p.visibly_opaque());
  ctx.set_slot(kEncrypted, p.encrypted);
  ctx.set_slot(kTos, net::to_string(p.tos));
  ctx.set_slot(kSize, static_cast<double>(p.size_bytes));
  ctx.set_slot(kSrcAs, static_cast<double>(p.src.provider));
  ctx.set_slot(kDstAs, static_cast<double>(p.dst.provider));
  ctx.set_slot(kSrcHost, static_cast<double>(p.src.host));
  ctx.set_slot(kDstHost, static_cast<double>(p.dst.host));
  ctx.set_slot(kTtl, static_cast<double>(p.ttl));
  ctx.set_slot(kHasSourceRoute, p.source_route.has_value());
  return ctx;
}

net::PacketFilter make_packet_filter(std::string name, bool disclosed, PolicySet policy,
                                     RedirectResolver resolver) {
  // Each verdict's reason is built once here; a deny copies it, a permit
  // touches no string.
  struct Compiled {
    PolicySet policy;
    RedirectResolver resolver;
    std::vector<std::string> reasons;  ///< "<filter>:<rule>", per rule
    std::string default_reason;
    std::string unresolvable_reason;
  };
  const std::string prefix = name + ":";
  auto c = std::make_shared<Compiled>(Compiled{std::move(policy), std::move(resolver), {},
                                                prefix + "default",
                                                prefix + "unresolvable-redirect"});
  for (const Rule& r : c->policy.rules()) c->reasons.push_back(prefix + r.name);
  net::PacketFilter f;
  f.name = std::move(name);
  f.disclosed = disclosed;
  f.fn = [c = std::shared_ptr<const Compiled>(std::move(c))](
             const net::Packet& p) -> net::FilterDecision {
    const Decision d = c->policy.evaluate(context_for_packet(p));
    switch (d.effect) {
      case Effect::kPermit: return net::FilterDecision::accept();
      case Effect::kDeny:
        // An unnamed rule reports as "default", like the default itself.
        return net::FilterDecision::drop(d.rule_name.empty() ? c->default_reason
                                                             : c->reasons[d.rule]);
      case Effect::kRedirect: {
        // Only a rule redirects (PolicySet rejects a redirect default).
        if (c->resolver) {
          if (auto addr = c->resolver(c->policy.rules()[d.rule].redirect_target)) {
            return net::FilterDecision::redirect(*addr, c->reasons[d.rule]);
          }
        }
        // Unresolvable redirect degrades to a drop: failing closed is the
        // only safe behaviour for a control point.
        return net::FilterDecision::drop(c->unresolvable_reason);
      }
    }
    return net::FilterDecision::accept();
  };
  return f;
}

}  // namespace tussle::policy
