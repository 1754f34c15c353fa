#include "routing/path_vector.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>

#include "sim/trace.hpp"

namespace tussle::routing {

PathVector::Policy PathVector::Policy::gao_rexford() {
  Policy p;
  p.local_pref = [](AsId, Rel learned_from, const std::vector<AsId>&) {
    switch (learned_from) {
      case Rel::kCustomer: return 300;
      case Rel::kPeer: return 200;
      case Rel::kProvider: return 100;
    }
    return 0;
  };
  p.export_ok = [](AsId, Rel learned_from, Rel to_neighbor) {
    // Own/customer routes go to everyone; peer & provider routes only to
    // customers (no free transit between my providers/peers).
    if (learned_from == Rel::kCustomer) return true;
    return to_neighbor == Rel::kCustomer;
  };
  return p;
}

PathVector::Policy PathVector::Policy::shortest_path() {
  Policy p;
  p.local_pref = [](AsId, Rel, const std::vector<AsId>&) { return 0; };
  p.export_ok = [](AsId, Rel, Rel) { return true; };
  return p;
}

namespace {

/// An AS's entry in one round's dense RIB. Its path lives in the round's
/// path arena at [off, off + len), self first; len == 0 means no route.
struct Slot {
  std::uint32_t off = 0;
  std::uint32_t len = 0;
  int pref = 0;
  std::uint32_t next = 0;        ///< next-hop index
  Rel learned = Rel::kCustomer;  ///< what the next hop is to this AS
};

/// One synchronous round's RIB. Two of these are swapped after every round,
/// so the arena keeps its capacity and a round does no heap allocation once
/// it has grown to the longest total path length seen.
struct Rib {
  std::vector<Slot> slots;
  std::vector<AsId> paths;
  const AsId* path(const Slot& s) const noexcept { return paths.data() + s.off; }
};

/// A neighbour in the per-compute CSR adjacency: its dense index and what it
/// is to the AS whose row this is.
struct Edge {
  std::uint32_t nbr = 0;
  Rel rel = Rel::kCustomer;
};

constexpr std::uint8_t kOrigin = 1;
constexpr std::uint8_t kValidates = 2;
constexpr std::uint32_t kNoIndex = std::numeric_limits<std::uint32_t>::max();

/// Is candidate (pref, path length, neighbour) better than the incumbent?
/// Ties go to the shorter path, then the lower next hop (deterministic, like
/// BGP's tie-breakers). A candidate path is [self] + the neighbour's path,
/// which starts at that neighbour, so ordering two equal-length candidates
/// lexicographically orders their neighbours, and indices follow AsId order.
bool better(int pref_a, std::uint32_t len_a, std::uint32_t nbr_a, int pref_b,
            std::uint32_t len_b, std::uint32_t nbr_b) {
  if (pref_a != pref_b) return pref_a > pref_b;
  if (len_a != len_b) return len_a < len_b;
  return nbr_a < nbr_b;
}

}  // namespace

PathVector::Outcome PathVector::compute(AsId dest, int max_rounds) const {
  return compute_with_origins({dest}, /*origin_validation=*/false, dest, max_rounds);
}

PathVector::Outcome PathVector::compute_with_origins(const std::vector<AsId>& claimed_origins,
                                                     bool origin_validation,
                                                     AsId legitimate_origin,
                                                     int max_rounds) const {
  return compute_with_origins(claimed_origins,
                              origin_validation ? graph_->ases() : std::vector<AsId>{},
                              legitimate_origin, max_rounds);
}

PathVector::Outcome PathVector::compute_with_origins(const std::vector<AsId>& claimed_origins,
                                                     const std::vector<AsId>& validators,
                                                     AsId legitimate_origin,
                                                     int max_rounds) const {
  std::optional<sim::ScopedSpan> decide;
  if (spans_ != nullptr) {
    // Control-plane work happens at setup time, outside the simulator
    // clock; the tracer's last observed time keeps ordering consistent.
    decide.emplace(spans_, spans_->last_time(), "routing.bgp", "decide",
                   std::initializer_list<sim::TraceField>{
                       {"origins", static_cast<std::int64_t>(claimed_origins.size())},
                       {"legitimate_origin", legitimate_origin},
                       {"validators", static_cast<std::int64_t>(validators.size())}});
  }
  Outcome out;
  // Dense indexing: an AS's index is its position in the sorted ases()
  // order, so AsIds need not be dense and index order is AsId order.
  const std::vector<AsId> all = graph_->ases();
  const auto n = static_cast<std::uint32_t>(all.size());
  auto index_of = [&all](AsId a) {
    const auto it = std::lower_bound(all.begin(), all.end(), a);
    return it != all.end() && *it == a ? static_cast<std::uint32_t>(it - all.begin())
                                       : kNoIndex;
  };
  std::vector<std::uint8_t> flags(n, 0);
  bool any_origin = false;
  for (AsId dest : claimed_origins) {
    const std::uint32_t i = index_of(dest);
    if (i == kNoIndex) continue;
    flags[i] |= kOrigin;
    any_origin = true;
  }
  if (!any_origin) return out;

  std::vector<std::uint32_t> first(n + 1, 0);
  std::vector<Edge> edges;
  edges.reserve(2 * graph_->edge_count());
  for (std::uint32_t i = 0; i < n; ++i) {
    first[i] = static_cast<std::uint32_t>(edges.size());
    for (const auto& [nbr, rel] : graph_->neighbors(all[i])) edges.push_back({index_of(nbr), rel});
    if (std::binary_search(validators.begin(), validators.end(), all[i])) flags[i] |= kValidates;
  }
  first[n] = static_cast<std::uint32_t>(edges.size());

  Rib rib;
  Rib next;
  rib.slots.resize(n);
  next.slots.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if ((flags[i] & kOrigin) == 0) continue;
    // Own route beats anything learned; own routes export like customer ones.
    rib.slots[i] = {static_cast<std::uint32_t>(rib.paths.size()), 1, 1 << 20, i, Rel::kCustomer};
    rib.paths.push_back(all[i]);
  }
  std::vector<AsId> candidate;  // [self] + neighbour path, for Policy::local_pref

  for (int round = 1; round <= max_rounds; ++round) {
    bool changed = false;
    // Synchronous rounds: decisions in round r see the RIB of round r-1,
    // which keeps the computation deterministic and order-independent.
    next.paths.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      const Slot& was = rib.slots[i];
      Slot& now = next.slots[i];
      const AsId self_as = all[i];
      if ((flags[i] & kOrigin) != 0) {
        now = was;
        now.off = static_cast<std::uint32_t>(next.paths.size());
        next.paths.push_back(self_as);
        continue;
      }
      std::uint32_t best = kNoIndex;
      int best_pref = 0;
      Rel best_rel = Rel::kCustomer;
      for (std::uint32_t e = first[i]; e < first[i + 1]; ++e) {
        const auto [nb, rel] = edges[e];
        const Slot& nbr_route = rib.slots[nb];
        if (nbr_route.len == 0) continue;
        const AsId nbr = all[nb];
        const AsId* path = rib.path(nbr_route);
        const AsId* path_end = path + nbr_route.len;
        // Would the neighbor export this route to me? From the neighbor's
        // point of view I am reverse(rel).
        if ((flags[nb] & kOrigin) == 0 &&
            !policy_.export_ok(nbr, nbr_route.learned, reverse(rel))) {
          continue;
        }
        // Loop prevention: reject paths containing self.
        if (std::find(path, path_end, self_as) != path_end) continue;
        // Origin validation (RPKI analogue): ASes that deployed it discard
        // routes terminating at an AS not authorized for the prefix.
        if ((flags[i] & kValidates) != 0 && path_end[-1] != legitimate_origin) {
          TUSSLE_TRACE_EVENT(sim::Tracer::global(), sim::SimTime::zero(),
                             sim::TraceLevel::kDebug, "routing.bgp", "origin-invalid",
                             {"as", self_as}, {"from", nbr}, {"claimed_origin", path_end[-1]});
          if (spans_ != nullptr) {
            spans_->instant("routing.bgp", "origin-invalid",
                            {{"as", self_as}, {"from", nbr}, {"claimed_origin", path_end[-1]}});
          }
          continue;
        }
        candidate.clear();
        candidate.push_back(self_as);
        candidate.insert(candidate.end(), path, path_end);
        const int pref = policy_.local_pref(self_as, rel, candidate);
        if (best == kNoIndex ||
            better(pref, nbr_route.len, nb, best_pref, rib.slots[best].len, best)) {
          best = nb;
          best_pref = pref;
          best_rel = rel;
        }
      }
      if (best == kNoIndex) {
        changed = changed || was.len != 0;
        now.len = 0;
        continue;
      }
      // The winning path is written once: [self] + the next hop's path.
      const Slot& via = rib.slots[best];
      now = {static_cast<std::uint32_t>(next.paths.size()), via.len + 1, best_pref, best,
             best_rel};
      next.paths.push_back(self_as);
      next.paths.insert(next.paths.end(), rib.path(via), rib.path(via) + via.len);
      if (!changed) {
        const AsId* p = next.path(now);
        changed = was.len != now.len || !std::equal(p, p + now.len, rib.path(was));
      }
    }
    std::swap(rib, next);
    out.rounds = round;
    if (!changed) {
      out.converged = true;
      break;
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const Slot& s = rib.slots[i];
    if (s.len == 0) continue;
    AsRoute r;
    r.as_path.assign(rib.path(s), rib.path(s) + s.len);
    r.next_hop = all[s.next];
    r.local_pref = s.pref;
    out.routes.emplace_hint(out.routes.end(), all[i], std::move(r));
  }
  if (decide) {
    decide->annotate({"converged", out.converged});
    decide->annotate({"rounds", static_cast<std::int64_t>(out.rounds)});
  }
  return out;
}

namespace {

/// Classifies every AS's route after a hijack computation: captured by the
/// hijacker, still reaching the true origin, or without a route at all.
HijackOutcome tally_hijack(const AsGraph& graph, const PathVector::Outcome& out,
                           AsId true_origin, AsId hijacker, bool origin_validation,
                           sim::SpanTracer* spans) {
  HijackOutcome h;
  h.converged = out.converged;
  for (AsId as : graph.ases()) {
    if (as == true_origin || as == hijacker) continue;
    ++h.total_ases;
    auto it = out.routes.find(as);
    if (it == out.routes.end() || !it->second.valid()) {
      ++h.unreachable;
    } else if (it->second.as_path.back() == hijacker) {
      // The narrated moment of the experiment: this AS believed the
      // hijacker's announcement and now routes the victim's prefix to it.
      TUSSLE_TRACE_EVENT(sim::Tracer::global(), sim::SimTime::zero(),
                         sim::TraceLevel::kInfo, "routing.bgp", "hijack-accepted",
                         {"as", as}, {"hijacker", hijacker}, {"victim", true_origin},
                         {"path_len", it->second.as_path.size()},
                         {"origin_validation", origin_validation});
      if (spans != nullptr) {
        spans->instant("routing.bgp", "hijack-accepted",
                       {{"as", as},
                        {"path_len", static_cast<std::int64_t>(it->second.as_path.size())}});
      }
      ++h.captured;
    } else {
      ++h.legitimate;
    }
  }
  h.capture_fraction =
      h.total_ases ? static_cast<double>(h.captured) / static_cast<double>(h.total_ases) : 0;
  return h;
}

}  // namespace

HijackOutcome simulate_hijack(const AsGraph& graph, AsId true_origin, AsId hijacker,
                              bool origin_validation, PathVector::Policy policy,
                              sim::SpanTracer* spans) {
  std::optional<sim::ScopedSpan> span;
  if (spans != nullptr) {
    span.emplace(spans, spans->last_time(), "routing.bgp", "hijack",
                 std::initializer_list<sim::TraceField>{
                     {"victim", true_origin}, {"hijacker", hijacker},
                     {"origin_validation", origin_validation}});
  }
  PathVector pv(graph, std::move(policy));
  pv.set_span_tracer(spans);
  auto out = pv.compute_with_origins({true_origin, hijacker}, origin_validation, true_origin);
  return tally_hijack(graph, out, true_origin, hijacker, origin_validation, spans);
}

HijackOutcome simulate_hijack_partial(const AsGraph& graph, AsId true_origin, AsId hijacker,
                                      const std::vector<AsId>& validators,
                                      PathVector::Policy policy, sim::SpanTracer* spans) {
  std::optional<sim::ScopedSpan> span;
  if (spans != nullptr) {
    span.emplace(spans, spans->last_time(), "routing.bgp", "hijack",
                 std::initializer_list<sim::TraceField>{
                     {"victim", true_origin}, {"hijacker", hijacker},
                     {"validators", static_cast<std::int64_t>(validators.size())}});
  }
  PathVector pv(graph, std::move(policy));
  pv.set_span_tracer(spans);
  auto out = pv.compute_with_origins({true_origin, hijacker}, validators, true_origin);
  return tally_hijack(graph, out, true_origin, hijacker, !validators.empty(), spans);
}

std::map<AsId, PathVector::Outcome> PathVector::compute_all(int max_rounds) const {
  std::map<AsId, Outcome> out;
  for (AsId dest : graph_->ases()) out.emplace(dest, compute(dest, max_rounds));
  return out;
}

VisibilityComparison compare_visibility(const AsGraph& graph, const PathVector& pv) {
  VisibilityComparison v;
  v.edges_total = graph.edge_count();
  if (v.edges_total == 0) return v;

  const auto all = graph.ases();
  auto rib = pv.compute_all();
  double total_visible = 0;
  for (AsId self : all) {
    std::set<std::pair<AsId, AsId>> seen;
    for (const auto& [dest, outcome] : rib) {
      (void)dest;
      auto it = outcome.routes.find(self);
      if (it == outcome.routes.end() || !it->second.valid()) continue;
      const auto& path = it->second.as_path;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        auto a = std::min(path[i], path[i + 1]);
        auto b = std::max(path[i], path[i + 1]);
        seen.emplace(a, b);
      }
    }
    total_visible += static_cast<double>(seen.size());
  }
  v.mean_edges_visible_pv = total_visible / static_cast<double>(all.size());
  v.visibility_ratio = v.mean_edges_visible_pv / static_cast<double>(v.edges_total);
  return v;
}

}  // namespace tussle::routing
