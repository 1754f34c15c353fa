// Rule engine: ordered first-match rule sets with a default effect.
//
// This is the simulator's analogue of the policy-language systems the paper
// surveys (P3P, KeyNote, COPS): actors express constraints inside a bounded
// ontology, and the engine decides per request. On top of plain evaluation
// it offers the modularity analysis the paper motivates — detecting rules
// that couple attributes from different tussle spaces.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "policy/expr.hpp"

namespace tussle::policy {

enum class Effect { kPermit, kDeny, kRedirect };

std::string to_string(Effect e);

struct Rule {
  std::string name;
  Effect effect = Effect::kPermit;
  Expr when;
  /// Target label for kRedirect (interpreted by the adapter layer).
  std::string redirect_target;
  /// Declared tussle space this rule is *supposed* to govern.
  std::string tussle_space;
};

/// The outcome of PolicySet::evaluate. The views point into the set's own
/// rules: they stay valid until the set is modified or destroyed.
struct Decision {
  static constexpr std::size_t kDefaultRule = static_cast<std::size_t>(-1);

  Effect effect = Effect::kPermit;
  std::string_view rule_name;  ///< empty when the default applied
  std::string_view redirect_target;
  std::size_t rule = kDefaultRule;  ///< index into PolicySet::rules()
};

/// Report row from the modularity analysis: a rule that reads attributes
/// outside its own declared tussle space.
struct Coupling {
  std::string rule_name;
  std::string rule_space;
  std::string foreign_space;
  std::string attribute;
};

class PolicySet {
 public:
  /// Throws PolicyError for a kRedirect default: a redirect needs a target,
  /// and only rules carry one.
  PolicySet(Ontology ontology, Effect default_effect);

  const Ontology& ontology() const noexcept { return onto_; }
  Effect default_effect() const noexcept { return default_; }

  /// Compiles and appends a rule. Throws on parse/ontology/type errors.
  PolicySet& add(const std::string& name, Effect effect, const std::string& when,
                 const std::string& tussle_space = {}, const std::string& redirect_target = {});

  bool remove(const std::string& name);
  const std::vector<Rule>& rules() const noexcept { return rules_; }

  /// First-match evaluation; falls back to the default effect. `ctx` must be
  /// bound to an ontology with this set's fingerprint: a rule evaluated
  /// against any other context throws OntologyError.
  Decision evaluate(const Context& ctx) const;

  /// Every cross-space attribute reference — empty means the rule set is
  /// modular along its declared tussle boundaries.
  std::vector<Coupling> cross_space_couplings() const;

  /// Spillover index in [0,1]: fraction of attribute references that cross
  /// a tussle boundary. 0 = perfectly modular.
  double spillover_index() const;

 private:
  Ontology onto_;
  Effect default_;
  std::vector<Rule> rules_;
};

}  // namespace tussle::policy
