// Per-node forwarding state.
//
// Two lookup planes coexist, mirroring the paper's routing-control tussle
// (§V-A-4): destination prefixes (provider-controlled routing fills these)
// and AS-level next hops (user-controlled source routing consults these).
// Table *size* is itself a measured quantity — portable addresses inflate
// it, which is the cost side of experiment E1.
#pragma once

#include <cstddef>
#include <optional>
#include <unordered_map>

#include "net/address.hpp"

namespace tussle::net {

/// Interface index within a node; -1 means "no route".
using IfIndex = int;
inline constexpr IfIndex kNoIface = -1;

class ForwardingTable {
 public:
  void set_prefix_route(const Prefix& p, IfIndex iface) { prefixes_[p] = iface; }
  void erase_prefix_route(const Prefix& p) { prefixes_.erase(p); }
  void set_as_route(AsId as, IfIndex iface) { as_routes_[as] = iface; }
  void set_default_route(IfIndex iface) noexcept { default_ = iface; }
  void clear() {
    prefixes_.clear();
    as_routes_.clear();
    default_ = kNoIface;
  }

  /// Longest-match equivalent for our two-level hierarchy: exact prefix
  /// first, then the address's provider AS, then the default route.
  std::optional<IfIndex> lookup(const Address& a) const;

  /// Next hop toward a given AS (source-route forwarding).
  std::optional<IfIndex> lookup_as(AsId as) const;

  /// Number of installed prefix entries — the "core table bloat" metric.
  std::size_t prefix_entries() const noexcept { return prefixes_.size(); }
  std::size_t as_entries() const noexcept { return as_routes_.size(); }

 private:
  std::unordered_map<Prefix, IfIndex> prefixes_;
  std::unordered_map<AsId, IfIndex> as_routes_;
  IfIndex default_ = kNoIface;
};

}  // namespace tussle::net
