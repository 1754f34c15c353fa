// model-sweep: core::run_sweep at 4 jobs over runs that each generate a
// hierarchy, converge routes toward K destinations, roll out origin
// validation against a hijack, step a market and play a repeated game.
// No simulator events run: routing, econ, game and the sweep engine do
// all the work.
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "core/sweep.hpp"
#include "econ/market.hpp"
#include "game/canonical.hpp"
#include "game/learners.hpp"
#include "routing/path_vector.hpp"

namespace tnbench {
namespace {

using namespace tussle;

constexpr std::size_t kRuns = 48;
constexpr std::size_t kJobs = 4;
constexpr std::size_t kTier1 = 3;
constexpr std::size_t kTier2 = 16;
constexpr std::size_t kStubs = 100;
constexpr std::size_t kDests = 6;
constexpr std::size_t kRolloutSteps = 5;
constexpr std::size_t kPeriods = 300;
constexpr std::size_t kRounds = 10000;

/// Per-run inputs drawn from the seed during set-up.
struct RunInput {
  double switching_cost = 0;
  std::size_t game = 0;
  std::vector<econ::ProviderConfig> providers;
};

game::MatrixGame pick_game(std::size_t i) {
  switch (i % 4) {
    case 0: return game::congestion_compliance_game();
    case 1: return game::matching_pennies();
    case 2: return game::standards_coordination_game();
    default: return game::peering_game();
  }
}

/// One sweep run. Returns how many of its checks failed.
double body(core::RunContext& ctx, const RunInput& in, bool broken) {
  double failed = 0;
  routing::Hierarchy h;
  {
    Span s("routing.make_hierarchy");
    h = routing::make_hierarchy(ctx.rng(), kTier1, kTier2, kStubs);
  }
  const std::size_t total = h.graph.as_count();

  routing::PathVector pv(h.graph);
  double rounds = 0;
  for (std::size_t k = 0; k < kDests; ++k) {
    const net::AsId dest = h.stubs[static_cast<std::size_t>(ctx.rng().uniform_int(0, kStubs - 1))];
    routing::PathVector::Outcome out;
    {
      Span s("routing.pv_compute");
      out = pv.compute(dest);
    }
    rounds += out.rounds;
    std::size_t reach = 0;
    for (const auto& [as, r] : out.routes) reach += r.valid() && r.as_path.back() == dest;
    failed += !out.converged || reach != total;
  }
  ctx.put("pv_rounds", rounds);

  // Top-down origin-validation rollout against a stub hijacker.
  const net::AsId victim = h.stubs.front();
  const net::AsId attacker = h.stubs.back();
  std::vector<net::AsId> order = h.tier1;
  order.insert(order.end(), h.tier2.begin(), h.tier2.end());
  order.insert(order.end(), h.stubs.begin(), h.stubs.end() - 1);
  {
    Span s("routing.rollout");
    for (std::size_t step = 0; step < kRolloutSteps; ++step) {
      std::vector<net::AsId> validators(
          order.begin(), order.begin() + static_cast<std::ptrdiff_t>(
                                             order.size() * step / (kRolloutSteps - 1)));
      std::sort(validators.begin(), validators.end());
      const auto r = routing::simulate_hijack_partial(h.graph, victim, attacker, validators);
      failed += r.captured + r.legitimate + r.unreachable != r.total_ases;
      ctx.put("capture." + std::to_string(step), r.capture_fraction);
      if (step + 1 == kRolloutSteps) failed += broken ? r.captured == 0 : r.captured != 0;
    }
  }

  {
    Span s("econ.market");
    econ::MarketConfig cfg;
    cfg.consumers = 300;
    cfg.switching_cost = in.switching_cost;
    cfg.periods = kPeriods;
    econ::Market market(cfg, in.providers, ctx.rng());
    double paid = 0;
    for (std::size_t p = 0; p < kPeriods; ++p) paid += market.step();
    failed += !std::isfinite(paid) || paid < 0;
    ctx.put("market.mean_paid", paid / kPeriods);
    for (const double price : market.prices()) failed += !(price > 0);
  }

  {
    Span s("game.play_repeated");
    const game::MatrixGame g = pick_game(in.game);
    game::RegretMatching row(game::row_payoff_matrix(g));
    game::RegretMatching col(game::col_payoff_matrix(g));
    const auto out = game::play_repeated(g, row, col, kRounds, ctx.rng());
    double freq = 0;
    for (const double f : out.row_empirical) freq += f;
    failed += out.rounds != kRounds || std::abs(freq - 1) > 1e-9;
    ctx.put("game.row_payoff", out.row_mean_payoff);
    ctx.put("game.col_payoff", out.col_mean_payoff);
  }
  return failed;
}

class Sweep final : public Workload {
 public:
  explicit Sweep(const Options& opt) : opt_(opt) {}
  int threads() const override { return static_cast<int>(kJobs); }

  PassStats pass(std::uint32_t index, Mode mode, Checks& checks) override {
    (void)mode;
    Trace::set_run(index);
    PassStats st;
    PassClock clock(st);
    std::vector<RunInput> inputs(kRuns);
    core::ScenarioSpec spec;
    {
      Span s("core.spec");
      sim::Rng rng(opt_.seed);
      for (RunInput& in : inputs) {
        in.switching_cost = rng.uniform(0, 2);
        in.game = static_cast<std::size_t>(rng.uniform_int(0, 3));
        const auto n = rng.uniform_int(2, 5);
        for (std::int64_t p = 0; p < n; ++p) {
          econ::ProviderConfig pc;
          pc.name = "isp-" + std::to_string(p);
          pc.marginal_cost = rng.uniform(1, 3);
          pc.initial_price = pc.marginal_cost + rng.uniform(2, 5);
          in.providers.push_back(pc);
        }
      }
      spec.name = "model-sweep";
      spec.replicas = kRuns;
    }
    std::uint64_t sweep_span = 0;  // parent of the bodies' spans
    const bool broken = opt_.broken("run-check");
    spec.body = [&inputs, &sweep_span, index, broken](core::RunContext& ctx) {
      Trace::set_run(index * static_cast<std::uint32_t>(kRuns) +
                     static_cast<std::uint32_t>(ctx.run_index()));
      Span s("core.body", sweep_span);
      ctx.put("check_failed", body(ctx, inputs[ctx.run_index()], broken));
    };
    core::SweepOptions so;
    so.base_seed = opt_.seed;
    so.jobs = kJobs;

    clock.start_timed();
    core::SweepResult res;
    {
      Span s("core.run_sweep");
      sweep_span = s.id();
      res = core::run_sweep(spec, so);
    }
    clock.stop();

    st.units = res.runs.size();
    st.ops = res.runs.size();
    Digest d;
    double failed = 0;
    for (const core::RunResult& r : res.runs) {
      for (const auto& [k, v] : r.metrics.items()) {
        for (const char ch : k) d.add(static_cast<std::uint64_t>(ch));
        d.add(v);
      }
      failed += r.metrics.get("check_failed");
    }
    st.digest = d.value();
    checks.expect(res.runs.size() == kRuns, "sweep returned the wrong number of runs");
    checks.expect(failed == 0, std::to_string(failed) + " sweep run checks failed",
                  static_cast<std::uint64_t>(failed));

    if (Trace::enabled()) {
      const auto aggs = Trace::take_aggregates();
      auto agg = [&aggs](const char* k) {
        auto it = aggs.find(k);
        return it == aggs.end() ? Aggregate{} : it->second;
      };
      double rounds = 0;
      for (const core::RunResult& r : res.runs) rounds += r.metrics.get("pv_rounds");
      const double sweep_s = agg("core.run_sweep").seconds;
      const double body_s = agg("core.body").seconds;
      auto& m = st.layer;
      m["routing.pv_computes"] = static_cast<double>(agg("routing.pv_compute").count);
      m["routing.pv_rounds"] = rounds;
      m["routing.pv_ms"] = agg("routing.pv_compute").seconds * 1e3;
      m["routing.rollout_ms"] = agg("routing.rollout").seconds * 1e3;
      m["econ.periods"] = static_cast<double>(kRuns * kPeriods);
      m["econ.period_us"] = agg("econ.market").seconds * 1e6 / (kRuns * kPeriods);
      m["game.rounds"] = static_cast<double>(kRuns * kRounds);
      m["game.round_ns"] = agg("game.play_repeated").seconds * 1e9 / (kRuns * kRounds);
      m["core.sweep_s"] = sweep_s;
      m["core.body_s"] = body_s;
      m["core.parallel_eff"] = sweep_s > 0 ? body_s / (sweep_s * kJobs) : 0;
    }
    return st;
  }

 private:
  Options opt_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep(const Options& opt) { return std::make_unique<Sweep>(opt); }

}  // namespace tnbench
