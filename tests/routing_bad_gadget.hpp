// Bad Gadget: the classic dispute wheel that never converges. Shared by the
// path-vector tests.
#pragma once

#include <vector>

#include "routing/path_vector.hpp"

namespace tussle::routing::fixtures {

/// Spokes 1, 2, 3 around hub 0, every pair of them peering.
inline AsGraph bad_gadget_graph() {
  AsGraph g;
  g.add_peering(0, 1);
  g.add_peering(0, 2);
  g.add_peering(0, 3);
  g.add_peering(1, 2);
  g.add_peering(2, 3);
  g.add_peering(3, 1);
  return g;
}

/// Each spoke prefers the 2-hop path through the next spoke (1 via 2, 2 via
/// 3, 3 via 1) over its direct path to 0, and everyone exports everything.
inline PathVector::Policy bad_gadget_policy() {
  PathVector::Policy policy;
  policy.export_ok = [](AsId, Rel, Rel) { return true; };
  policy.local_pref = [](AsId self, Rel, const std::vector<AsId>& path) {
    if (path.size() == 3) {
      const AsId via = path[1];
      if ((self == 1 && via == 2) || (self == 2 && via == 3) || (self == 3 && via == 1)) {
        return 500;
      }
    }
    if (path.size() == 2) return 100;  // direct
    return 10;
  };
  return policy;
}

}  // namespace tussle::routing::fixtures
