#include "game/learners.hpp"

#include <algorithm>
#include <stdexcept>

namespace tussle::game {

namespace {

std::size_t argmax(const std::vector<double>& v) {
  return static_cast<std::size_t>(std::max_element(v.begin(), v.end()) - v.begin());
}

}  // namespace

// ---------------------------------------------------------- FictitiousPlay

FictitiousPlay::FictitiousPlay(std::vector<std::vector<double>> my_payoff)
    : payoff_(std::move(my_payoff)) {
  if (payoff_.empty() || payoff_[0].empty()) throw std::invalid_argument("empty payoff");
  counts_.assign(payoff_[0].size(), 0.0);
  values_.assign(payoff_.size(), 0.0);
}

std::size_t FictitiousPlay::choose(sim::Rng& rng) {
  double total = 0;
  for (double c : counts_) total += c;
  std::fill(values_.begin(), values_.end(), 0.0);
  if (total == 0) {
    // No history: uniform prior over opponent actions.
    for (std::size_t i = 0; i < payoff_.size(); ++i) {
      for (double x : payoff_[i]) values_[i] += x;
    }
  } else {
    for (std::size_t i = 0; i < payoff_.size(); ++i) {
      for (std::size_t j = 0; j < counts_.size(); ++j) {
        values_[i] += counts_[j] / total * payoff_[i][j];
      }
    }
  }
  (void)rng;
  return argmax(values_);
}

void FictitiousPlay::observe(std::size_t opponent_action, double) {
  counts_.at(opponent_action) += 1;
}

Mixed FictitiousPlay::opponent_empirical() const {
  double total = 0;
  for (double c : counts_) total += c;
  Mixed m(counts_.size(), 0.0);
  if (total == 0) return m;
  for (std::size_t j = 0; j < counts_.size(); ++j) m[j] = counts_[j] / total;
  return m;
}

// ---------------------------------------------------------- RegretMatching

RegretMatching::RegretMatching(std::vector<std::vector<double>> my_payoff)
    : payoff_(std::move(my_payoff)) {
  if (payoff_.empty() || payoff_[0].empty()) throw std::invalid_argument("empty payoff");
  cum_regret_.assign(payoff_.size(), 0.0);
  cum_action_payoff_.assign(payoff_.size(), 0.0);
  pos_.assign(payoff_.size(), 0.0);
}

std::size_t RegretMatching::choose(sim::Rng& rng) {
  double total = 0;
  for (std::size_t i = 0; i < pos_.size(); ++i) {
    pos_[i] = std::max(0.0, cum_regret_[i]);
    total += pos_[i];
  }
  if (total <= 0) {
    last_action_ =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(pos_.size()) - 1));
  } else {
    last_action_ = rng.weighted_pick(pos_);
  }
  return last_action_;
}

void RegretMatching::observe(std::size_t opponent_action, double payoff) {
  cum_payoff_ += payoff;
  ++rounds_;
  for (std::size_t a = 0; a < payoff_.size(); ++a) {
    const double would = payoff_[a].at(opponent_action);
    cum_action_payoff_[a] += would;
    cum_regret_[a] += would - payoff;
  }
}

double RegretMatching::average_regret() const {
  if (rounds_ == 0) return 0;
  double best = *std::max_element(cum_action_payoff_.begin(), cum_action_payoff_.end());
  return std::max(0.0, (best - cum_payoff_) / static_cast<double>(rounds_));
}

// ------------------------------------------------------------ EpsilonGreedy

EpsilonGreedy::EpsilonGreedy(std::size_t n_actions, double epsilon)
    : epsilon_(epsilon), total_(n_actions, 0.0), tries_(n_actions, 0) {
  if (n_actions == 0) throw std::invalid_argument("no actions");
}

std::size_t EpsilonGreedy::choose(sim::Rng& rng) {
  if (rng.bernoulli(epsilon_)) {
    last_action_ = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(total_.size()) - 1));
    return last_action_;
  }
  // Exploit: best average so far; untried actions count as best.
  double best = -1e300;
  std::size_t best_i = 0;
  for (std::size_t i = 0; i < total_.size(); ++i) {
    const double avg = tries_[i] == 0 ? 1e300 : total_[i] / static_cast<double>(tries_[i]);
    if (avg > best) {
      best = avg;
      best_i = i;
    }
  }
  last_action_ = best_i;
  return last_action_;
}

void EpsilonGreedy::observe(std::size_t, double payoff) {
  total_[last_action_] += payoff;
  tries_[last_action_] += 1;
}

// ------------------------------------------------------ MyopicBestResponse

MyopicBestResponse::MyopicBestResponse(std::vector<std::vector<double>> my_payoff)
    : payoff_(std::move(my_payoff)) {
  if (payoff_.empty() || payoff_[0].empty()) throw std::invalid_argument("empty payoff");
  values_.assign(payoff_.size(), 0.0);
}

std::size_t MyopicBestResponse::choose(sim::Rng& rng) {
  if (!seen_) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(payoff_.size()) - 1));
  }
  for (std::size_t i = 0; i < payoff_.size(); ++i) values_[i] = payoff_[i][opp_last_];
  return argmax(values_);
}

void MyopicBestResponse::observe(std::size_t opponent_action, double) {
  opp_last_ = opponent_action;
  seen_ = true;
}

// ------------------------------------------------------------ FixedStrategy

std::size_t FixedStrategy::choose(sim::Rng& rng) { return rng.weighted_pick(strategy_); }

// ------------------------------------------------------------- repeated ---

RepeatedOutcome play_repeated(const MatrixGame& game, Learner& row, Learner& col,
                              std::size_t rounds, sim::Rng& rng) {
  return play_repeated(game, row, col, rounds, rng, RoundObserver{});
}

RepeatedOutcome play_repeated(const MatrixGame& game, Learner& row, Learner& col,
                              std::size_t rounds, sim::Rng& rng,
                              const RoundObserver& observer) {
  RepeatedOutcome out;
  out.row_empirical.assign(game.rows(), 0.0);
  out.col_empirical.assign(game.cols(), 0.0);
  double rp = 0, cp = 0;
  for (std::size_t t = 0; t < rounds; ++t) {
    const std::size_t a = row.choose(rng);
    const std::size_t b = col.choose(rng);
    out.row_empirical.at(a) += 1;
    out.col_empirical.at(b) += 1;
    const double pr = game.row_payoff(a, b);
    const double pc = game.col_payoff(a, b);
    rp += pr;
    cp += pc;
    row.observe(b, pr);
    col.observe(a, pc);
    if (observer) observer(t, a, b, pr, pc);
  }
  if (rounds > 0) {
    for (double& x : out.row_empirical) x /= static_cast<double>(rounds);
    for (double& x : out.col_empirical) x /= static_cast<double>(rounds);
    out.row_mean_payoff = rp / static_cast<double>(rounds);
    out.col_mean_payoff = cp / static_cast<double>(rounds);
  }
  out.rounds = rounds;
  return out;
}

std::vector<std::vector<double>> row_payoff_matrix(const MatrixGame& g) {
  std::vector<std::vector<double>> m(g.rows(), std::vector<double>(g.cols()));
  for (std::size_t i = 0; i < g.rows(); ++i) {
    for (std::size_t j = 0; j < g.cols(); ++j) m[i][j] = g.row_payoff(i, j);
  }
  return m;
}

std::vector<std::vector<double>> col_payoff_matrix(const MatrixGame& g) {
  std::vector<std::vector<double>> m(g.cols(), std::vector<double>(g.rows()));
  for (std::size_t j = 0; j < g.cols(); ++j) {
    for (std::size_t i = 0; i < g.rows(); ++i) m[j][i] = g.col_payoff(i, j);
  }
  return m;
}

}  // namespace tussle::game
