#include "econ/value_flow.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace tussle::econ {

void Ledger::transfer(const std::string& from, const std::string& to, double amount,
                      std::string memo) {
  if (!std::isfinite(amount)) {
    throw std::invalid_argument("Ledger::transfer: non-finite amount (" + from + " -> " + to +
                                "): NaN/Inf would corrupt every downstream balance");
  }
  if (amount < 0) {
    throw std::invalid_argument("Ledger::transfer: negative amount (" + from + " -> " + to +
                                "): reverse the parties instead");
  }
  if (from == to) {
    throw std::invalid_argument("Ledger::transfer: self transfer ('" + from +
                                "'): value must flow between distinct parties");
  }
  if (auditor_ != nullptr) auditor_->record_shared_access("econ.ledger", "transfer");
  balances_[from] -= amount;
  balances_[to] += amount;
  sim::SpanId cause = sim::kNoSpan;
  if (spans_ != nullptr) {
    cause = spans_->current();
    // The transfer itself is a leaf span under the causing decision, so the
    // chrome trace shows "who was compensated" inside "what was decided".
    spans_->instant("econ.ledger", "transfer",
                    {{"from", from}, {"to", to}, {"amount", amount}, {"memo", memo}});
  }
  log_.push_back(Entry{from, to, amount, std::move(memo), cause});
#ifdef TUSSLE_SANITIZE
  // Conservation of value: double-entry bookkeeping must sum to zero up to
  // float error. Checked only under sanitizer builds — it is O(parties).
  assert(std::abs(total()) < 1e-6 * (1.0 + static_cast<double>(log_.size())) &&
         "Ledger::transfer: balances no longer sum to ~0");
#endif
}

double Ledger::balance(const std::string& party) const {
  auto it = balances_.find(party);
  return it == balances_.end() ? 0.0 : it->second;
}

double Ledger::total() const {
  double t = 0;
  for (const auto& [p, b] : balances_) {
    (void)p;
    t += b;
  }
  return t;
}

double PaidTransit::transit_price(routing::AsId as) const {
  auto it = prices_.find(as);
  return it == prices_.end() ? default_price_ : it->second;
}

PaidTransit::Quote PaidTransit::quote(const std::vector<routing::AsId>& path) const {
  Quote q;
  q.path = path;
  q.paid_ases = builder_.off_contract_ases(path);
  for (routing::AsId as : q.paid_ases) q.total_price += transit_price(as);
  if (auto* sp = ledger_->span_tracer()) {
    sp->instant("econ.transit", "quote",
                {{"hops", static_cast<std::int64_t>(path.size())},
                 {"paid_ases", static_cast<std::int64_t>(q.paid_ases.size())},
                 {"price", q.total_price}});
  }
  return q;
}

std::optional<PaidTransit::Quote> PaidTransit::best_quote(routing::AsId from, routing::AsId to,
                                                          std::size_t k) const {
  auto paths = builder_.k_shortest_paths(from, to, k);
  std::optional<Quote> best;
  for (const auto& p : paths) {
    Quote q = quote(p);
    if (!best || q.total_price < best->total_price ||
        (q.total_price == best->total_price && q.path.size() < best->path.size())) {
      best = std::move(q);
    }
  }
  return best;
}

double PaidTransit::settle(const std::string& payer, const Quote& q) {
  sim::SpanTracer* sp = ledger_->span_tracer();
  std::optional<sim::ScopedSpan> span;
  if (sp != nullptr) {
    // One settle span groups the per-AS transfers; nested under whatever
    // caused the settlement (typically a delivery observer's deliver span).
    span.emplace(sp, sp->last_time(), "econ.transit", "settle",
                 std::initializer_list<sim::TraceField>{
                     {"payer", payer}, {"total", q.total_price}});
  }
  double moved = 0;
  for (routing::AsId as : q.paid_ases) {
    const double price = transit_price(as);
    ledger_->transfer(payer, "as:" + std::to_string(as), price, "transit");
    moved += price;
  }
  return moved;
}

}  // namespace tussle::econ
