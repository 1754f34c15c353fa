#include "policy/value.hpp"

#include <cstdio>

namespace tussle::policy {

ValueType type_of(const Value& v) noexcept {
  switch (v.index()) {
    case 0: return ValueType::kBool;
    case 1: return ValueType::kNumber;
    default: return ValueType::kString;
  }
}

std::string to_string(ValueType t) {
  switch (t) {
    case ValueType::kBool: return "bool";
    case ValueType::kNumber: return "number";
    case ValueType::kString: return "string";
  }
  return "?";
}

std::string to_string(const Value& v) {
  switch (v.index()) {
    case 0: return std::get<bool>(v) ? "true" : "false";
    case 1: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", std::get<double>(v));
      return buf;
    }
    default: return "\"" + std::get<std::string>(v) + "\"";
  }
}

// ---------------------------------------------------------------- Ontology

Ontology& Ontology::declare(const std::string& name, ValueType t, std::string space) {
  const std::size_t s = find(name);
  if (s == kNoSlot) {
    if (attrs_.size() == kMaxAttributes) {
      throw PolicyError("ontology full: at most " + std::to_string(kMaxAttributes) +
                        " attributes, cannot declare " + name);
    }
    attrs_.push_back(Attr{name, t, std::move(space)});
  } else {
    attrs_[s].type = t;
    if (!space.empty()) attrs_[s].space = std::move(space);
  }
  refingerprint();
  return *this;
}

std::size_t Ontology::find(std::string_view name) const noexcept {
  for (std::size_t s = 0; s < attrs_.size(); ++s) {
    if (attrs_[s].name == name) return s;
  }
  return kNoSlot;
}

std::size_t Ontology::slot_of(std::string_view name) const {
  const std::size_t s = find(name);
  if (s == kNoSlot) throw OntologyError("attribute not declared: " + std::string(name));
  return s;
}

std::string Ontology::space_of(std::string_view name) const {
  const std::size_t s = find(name);
  return s == kNoSlot ? std::string{} : attrs_[s].space;
}

void Ontology::refingerprint() noexcept {
  // FNV-1a over "name\0type\0" per slot: content-derived, so equal
  // declaration sequences agree across instances, runs and threads.
  std::uint64_t h = kFnvOffset;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ull;
  };
  for (const Attr& a : attrs_) {
    for (const char c : a.name) mix(static_cast<unsigned char>(c));
    mix(0);
    mix(static_cast<unsigned char>(a.type));
    mix(0);
  }
  fingerprint_ = h;
}

// ----------------------------------------------------------------- Context

const Value& Context::get(std::string_view name) const {
  const std::size_t s = onto_->slot_of(name);
  if (!bound(s)) throw OntologyError("attribute not bound: " + std::string(name));
  return slots_[s];
}

void Context::type_mismatch(std::size_t slot, const Value& v) const {
  throw TypeError("attribute " + onto_->name_at(slot) + " is declared " +
                  to_string(onto_->type_at(slot)) + ", bound to " + to_string(type_of(v)));
}

}  // namespace tussle::policy
