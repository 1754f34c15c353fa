// Learning dynamics for repeated tussle games.
//
// The paper (§II-B) contrasts the idealized, perfectly-informed actors of
// classic game theory with real actors that are "ill-informed, myopic and
// act to satisfy some poorly defined objective" (Binmore). These learners
// span that spectrum: fictitious play (statistically sophisticated), regret
// matching (adaptive, no model of the opponent), epsilon-greedy (noisy
// satisficer) and myopic best response.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "game/matrix_game.hpp"
#include "sim/random.hpp"

namespace tussle::game {

/// A player in a repeated two-player game. Implementations keep whatever
/// internal statistics they need; they see their own payoff matrix and the
/// opponent's realized actions.
class Learner {
 public:
  virtual ~Learner() = default;
  virtual std::string name() const = 0;
  /// Picks the next action (game size fixed at construction).
  virtual std::size_t choose(sim::Rng& rng) = 0;
  /// Observes the opponent's action and own realized payoff for the round.
  virtual void observe(std::size_t opponent_action, double payoff) = 0;
};

/// Fictitious play: best-respond to the empirical mixture of the opponent's
/// past actions. Converges (in empirical frequency) in zero-sum games.
class FictitiousPlay final : public Learner {
 public:
  /// `my_payoff[i][j]` = my payoff when I play i and the opponent plays j.
  explicit FictitiousPlay(std::vector<std::vector<double>> my_payoff);
  std::string name() const override { return "fictitious-play"; }
  std::size_t choose(sim::Rng& rng) override;
  void observe(std::size_t opponent_action, double payoff) override;
  Mixed opponent_empirical() const;

 private:
  std::vector<std::vector<double>> payoff_;
  std::vector<double> counts_;
  std::vector<double> values_;  ///< choose() scratch: expected payoff per action
};

/// Regret matching (Hart & Mas-Colell): play actions with probability
/// proportional to positive cumulative regret. Empirical play converges to
/// the set of correlated equilibria; external regret vanishes.
class RegretMatching final : public Learner {
 public:
  explicit RegretMatching(std::vector<std::vector<double>> my_payoff);
  std::string name() const override { return "regret-matching"; }
  std::size_t choose(sim::Rng& rng) override;
  void observe(std::size_t opponent_action, double payoff) override;
  /// Average external regret so far (should → 0).
  double average_regret() const;

 private:
  std::vector<std::vector<double>> payoff_;
  std::vector<double> cum_regret_;
  std::size_t last_action_ = 0;
  double cum_payoff_ = 0;
  std::size_t rounds_ = 0;
  std::vector<double> cum_action_payoff_;  ///< payoff had I always played a
  std::vector<double> pos_;                ///< choose() scratch: positive regrets
};

/// Epsilon-greedy satisficer: tracks average payoff per action, usually
/// exploits, sometimes explores. A deliberately "boundedly rational" actor.
class EpsilonGreedy final : public Learner {
 public:
  EpsilonGreedy(std::size_t n_actions, double epsilon);
  std::string name() const override { return "epsilon-greedy"; }
  std::size_t choose(sim::Rng& rng) override;
  void observe(std::size_t opponent_action, double payoff) override;

 private:
  double epsilon_ = 0;
  std::vector<double> total_;
  std::vector<std::size_t> tries_;
  std::size_t last_action_ = 0;
};

/// Myopic best response: assume the opponent repeats their last action.
class MyopicBestResponse final : public Learner {
 public:
  explicit MyopicBestResponse(std::vector<std::vector<double>> my_payoff);
  std::string name() const override { return "myopic"; }
  std::size_t choose(sim::Rng& rng) override;
  void observe(std::size_t opponent_action, double payoff) override;

 private:
  std::vector<std::vector<double>> payoff_;
  std::vector<double> values_;  ///< choose() scratch: payoff per action
  std::size_t opp_last_ = 0;
  bool seen_ = false;
};

/// Tit-for-tat (2-action games, action 0 = "cooperate"): start nice, then
/// mirror the opponent's last move. The formal face of §II-B's "social
/// pressure" — compliance enforced by reciprocity, not by the network.
class TitForTat final : public Learner {
 public:
  std::string name() const override { return "tit-for-tat"; }
  std::size_t choose(sim::Rng&) override { return next_; }
  void observe(std::size_t opponent_action, double) override { next_ = opponent_action; }

 private:
  std::size_t next_ = 0;
};

/// Grim trigger: cooperate until the opponent defects once, then punish
/// forever. The harshest social-enforcement convention.
class GrimTrigger final : public Learner {
 public:
  std::string name() const override { return "grim-trigger"; }
  std::size_t choose(sim::Rng&) override { return triggered_ ? 1 : 0; }
  void observe(std::size_t opponent_action, double) override {
    if (opponent_action != 0) triggered_ = true;
  }

 private:
  bool triggered_ = false;
};

/// A fixed (possibly mixed) strategy — useful as a control.
class FixedStrategy final : public Learner {
 public:
  explicit FixedStrategy(Mixed strategy) : strategy_(normalize(std::move(strategy))) {}
  std::string name() const override { return "fixed"; }
  std::size_t choose(sim::Rng& rng) override;
  void observe(std::size_t, double) override {}

 private:
  Mixed strategy_;
};

/// Result of a repeated-game run.
struct RepeatedOutcome {
  Mixed row_empirical;   ///< empirical action frequencies
  Mixed col_empirical;
  double row_mean_payoff = 0;
  double col_mean_payoff = 0;
  std::size_t rounds = 0;
};

/// Per-round visitor for play_repeated, invoked after both learners have
/// observed the round: (round index, row action, col action, row payoff,
/// col payoff). Telemetry hook — an empty function costs one branch per
/// round and the play is identical with or without it.
using RoundObserver = std::function<void(std::size_t round, std::size_t row_action,
                                         std::size_t col_action, double row_payoff,
                                         double col_payoff)>;

/// Plays `rounds` of `game` between two learners.
RepeatedOutcome play_repeated(const MatrixGame& game, Learner& row, Learner& col,
                              std::size_t rounds, sim::Rng& rng);

/// Same, with a per-round observer.
RepeatedOutcome play_repeated(const MatrixGame& game, Learner& row, Learner& col,
                              std::size_t rounds, sim::Rng& rng,
                              const RoundObserver& observer);

/// Convenience: payoff matrix of the row / column player as needed by the
/// learner constructors (column player's matrix is transposed so that
/// "my action" is always the first index).
std::vector<std::vector<double>> row_payoff_matrix(const MatrixGame& g);
std::vector<std::vector<double>> col_payoff_matrix(const MatrixGame& g);

}  // namespace tussle::game
