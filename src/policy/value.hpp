// Values, ontologies and attribute contexts for the policy language.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace tussle::policy {

/// Base class of all policy-engine errors.
class PolicyError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The expression referenced an attribute the ontology does not define.
/// This is the formal face of the paper's §II-B point: a policy language
/// bounds the tussle that can be expressed within defined limits.
class OntologyError : public PolicyError {
 public:
  using PolicyError::PolicyError;
};

class ParseError : public PolicyError {
 public:
  using PolicyError::PolicyError;
};

class TypeError : public PolicyError {
 public:
  using PolicyError::PolicyError;
};

/// Runtime value: boolean, number, or string.
using Value = std::variant<bool, double, std::string>;

enum class ValueType { kBool, kNumber, kString };

ValueType type_of(const Value& v) noexcept;
std::string to_string(ValueType t);
std::string to_string(const Value& v);

/// The declared attribute vocabulary. Expressions are checked against it at
/// compile time, so an undeclared attribute fails *before* any packet flows.
///
/// Each attribute gets a dense slot in declaration order; compiled
/// expressions and Contexts address attributes by slot, never by name. The
/// fingerprint hashes the ordered (name, type) list, so two ontologies that
/// declare the same attributes in the same order share slots and can share
/// contexts.
///
/// Each attribute may be tagged with the tussle space it belongs to
/// ("qos", "application", "identity", ...). The tagging powers the
/// modularity analysis in PolicySet: a rule whose expression crosses
/// spaces is coupling tussles that the paper says should stay separate.
class Ontology {
 public:
  /// Capacity of a Context; declaring more attributes throws PolicyError.
  static constexpr std::size_t kMaxAttributes = 16;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  /// Declares `name` in the next free slot. Re-declaring keeps the slot and
  /// replaces the type (and the space, when one is given).
  Ontology& declare(const std::string& name, ValueType t, std::string space = {});

  bool defines(std::string_view name) const { return find(name) != kNoSlot; }
  /// Throws OntologyError when the attribute is not declared.
  ValueType type_of(std::string_view name) const { return attrs_[slot_of(name)].type; }
  /// Tussle space of the attribute, or "" when untagged (or undeclared).
  std::string space_of(std::string_view name) const;
  std::size_t size() const noexcept { return attrs_.size(); }

  /// Slot of `name`, or kNoSlot when it is not declared.
  std::size_t find(std::string_view name) const noexcept;
  /// Slot of `name`; throws OntologyError when it is not declared.
  std::size_t slot_of(std::string_view name) const;
  const std::string& name_at(std::size_t slot) const { return attrs_.at(slot).name; }
  ValueType type_at(std::size_t slot) const { return attrs_.at(slot).type; }
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }

 private:
  struct Attr {
    std::string name;
    ValueType type = ValueType::kBool;
    std::string space;
  };
  static constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
  void refingerprint() noexcept;

  std::vector<Attr> attrs_;
  std::uint64_t fingerprint_ = kFnvOffset;  ///< of no attributes
};

/// Attribute bindings an expression is evaluated against: one inline Value
/// per slot of the ontology it is bound to, plus a bound-bitmask. Names are
/// resolved and types checked when a value is bound, so evaluation reads a
/// slot and never allocates.
///
/// A Context refers to its ontology: the ontology must outlive it.
class Context {
 public:
  explicit Context(const Ontology& onto) noexcept
      : onto_(&onto), fingerprint_(onto.fingerprint()) {}

  /// Binds `name`. Throws OntologyError when the ontology does not declare
  /// it and TypeError when `v` is not of the declared type.
  Context& set(std::string_view name, Value v) {
    return set_slot(onto_->slot_of(name), std::move(v));
  }
  Context& set(std::string_view name, const char* v) { return set(name, Value(std::string(v))); }
  /// Binds a slot directly, with the same type check as set().
  Context& set_slot(std::size_t slot, Value v) {
    if (type_of(v) != onto_->type_at(slot)) type_mismatch(slot, v);
    slots_[slot] = std::move(v);
    bound_ |= std::uint32_t{1} << slot;
    return *this;
  }

  /// Throws OntologyError when the attribute is undeclared or unbound.
  const Value& get(std::string_view name) const;
  bool has(std::string_view name) const {
    const std::size_t s = onto_->find(name);
    return s != Ontology::kNoSlot && bound(s);
  }

  bool bound(std::size_t slot) const noexcept {
    return slot < Ontology::kMaxAttributes && ((bound_ >> slot) & 1u) != 0;
  }
  /// The value in a bound slot (unchecked).
  const Value& at(std::size_t slot) const noexcept { return slots_[slot]; }
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }

 private:
  [[noreturn]] void type_mismatch(std::size_t slot, const Value& v) const;

  const Ontology* onto_ = nullptr;
  std::uint64_t fingerprint_ = 0;
  std::uint32_t bound_ = 0;
  std::array<Value, Ontology::kMaxAttributes> slots_{};
};

}  // namespace tussle::policy
