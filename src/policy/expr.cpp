#include "policy/expr.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <set>
#include <string_view>

namespace tussle::policy {

// ------------------------------------------------------------- lexer ------

namespace {

enum class Tok {
  kEnd,
  kNumber,
  kString,
  kIdent,     // also carries keywords: and/or/not/in/true/false
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kComma,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kPlus,
  kMinus,
  kStar,
  kSlash,
};

struct Token {
  Tok kind = Tok::kEnd;
  std::string text;
  double number = 0;
  std::size_t pos = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& src) : src_(src) {}

  Token next() {
    skip_ws();
    Token t;
    t.pos = i_;
    if (i_ >= src_.size()) return t;
    const char c = src_[i_];
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i_ + 1 < src_.size() &&
         std::isdigit(static_cast<unsigned char>(src_[i_ + 1])))) {
      return lex_number();
    }
    if (c == '"' || c == '\'') return lex_string(c);
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') return lex_ident();
    ++i_;
    switch (c) {
      case '(': t.kind = Tok::kLParen; return t;
      case ')': t.kind = Tok::kRParen; return t;
      case '[': t.kind = Tok::kLBracket; return t;
      case ']': t.kind = Tok::kRBracket; return t;
      case ',': t.kind = Tok::kComma; return t;
      case '+': t.kind = Tok::kPlus; return t;
      case '-': t.kind = Tok::kMinus; return t;
      case '*': t.kind = Tok::kStar; return t;
      case '/': t.kind = Tok::kSlash; return t;
      case '=':
        if (peek() == '=') {
          ++i_;
          t.kind = Tok::kEq;
          return t;
        }
        break;
      case '!':
        if (peek() == '=') {
          ++i_;
          t.kind = Tok::kNe;
          return t;
        }
        break;
      case '<':
        if (peek() == '=') {
          ++i_;
          t.kind = Tok::kLe;
        } else {
          t.kind = Tok::kLt;
        }
        return t;
      case '>':
        if (peek() == '=') {
          ++i_;
          t.kind = Tok::kGe;
        } else {
          t.kind = Tok::kGt;
        }
        return t;
      default: break;
    }
    throw ParseError("unexpected character '" + std::string(1, c) + "' at offset " +
                     std::to_string(t.pos));
  }

 private:
  char peek() const { return i_ < src_.size() ? src_[i_] : '\0'; }

  void skip_ws() {
    while (i_ < src_.size() && std::isspace(static_cast<unsigned char>(src_[i_]))) ++i_;
  }

  Token lex_number() {
    Token t;
    t.pos = i_;
    t.kind = Tok::kNumber;
    std::size_t end = i_;
    while (end < src_.size() &&
           (std::isdigit(static_cast<unsigned char>(src_[end])) || src_[end] == '.')) {
      ++end;
    }
    t.text = src_.substr(i_, end - i_);
    std::size_t used = 0;
    try {
      t.number = std::stod(t.text, &used);
    } catch (const std::out_of_range&) {
      throw ParseError("number out of range at offset " + std::to_string(t.pos));
    }
    if (used != t.text.size()) {
      throw ParseError("malformed number '" + t.text + "' at offset " + std::to_string(t.pos));
    }
    i_ = end;
    return t;
  }

  Token lex_string(char quote) {
    Token t;
    t.pos = i_;
    t.kind = Tok::kString;
    ++i_;  // opening quote
    std::string out;
    while (i_ < src_.size() && src_[i_] != quote) {
      out.push_back(src_[i_]);
      ++i_;
    }
    if (i_ >= src_.size()) throw ParseError("unterminated string literal");
    ++i_;  // closing quote
    t.text = std::move(out);
    return t;
  }

  Token lex_ident() {
    Token t;
    t.pos = i_;
    t.kind = Tok::kIdent;
    std::size_t end = i_;
    while (end < src_.size() && (std::isalnum(static_cast<unsigned char>(src_[end])) ||
                                 src_[end] == '_' || src_[end] == '.')) {
      ++end;
    }
    t.text = src_.substr(i_, end - i_);
    i_ = end;
    return t;
  }

  const std::string& src_;
  std::size_t i_ = 0;
};

}  // namespace

// --------------------------------------------------------------- AST ------

struct Expr::Node {
  enum class Op {
    kLiteral,
    kAttr,
    kNot,
    kAnd,
    kOr,
    kEq,
    kNe,
    kLt,
    kLe,
    kGt,
    kGe,
    kIn,
    kAdd,
    kSub,
    kMul,
    kDiv,
  };
  Op op = Op::kLiteral;
  ValueType type = ValueType::kBool;
  std::uint32_t slot = 0;   // for kAttr: where a Context binds it
  std::uint32_t depth = 1;  // of the subtree rooted here
  Value literal;
  std::string attr;         // for kAttr: the name (errors, analysis)
  std::vector<Value> list;  // for kIn
  std::shared_ptr<const Node> lhs;
  std::shared_ptr<const Node> rhs;
};

namespace {

using Node = Expr::Node;
using Op = Node::Op;
using NodePtr = std::shared_ptr<const Node>;

// Evaluation and the parser both recurse, so both are bounded: an AST may
// be at most this deep, and parentheses and "not" may nest at most this far.
constexpr std::size_t kMaxDepth = 256;

class Parser {
 public:
  Parser(const std::string& src, const Ontology& onto) : lexer_(src), onto_(onto) { advance(); }

  NodePtr parse() {
    NodePtr e = parse_or();
    if (cur_.kind != Tok::kEnd) {
      throw ParseError("trailing input at offset " + std::to_string(cur_.pos));
    }
    return e;
  }

 private:
  void advance() { cur_ = lexer_.next(); }

  bool accept(Tok k) {
    if (cur_.kind != k) return false;
    advance();
    return true;
  }

  bool accept_kw(const char* kw) {
    if (cur_.kind != Tok::kIdent || cur_.text != kw) return false;
    advance();
    return true;
  }

  /// Records an open parenthesis or "not" for the nesting bound.
  class Nest {
   public:
    explicit Nest(Parser& p) : p_(p) {
      if (++p_.nesting_ > kMaxDepth) {
        throw ParseError("expression nests deeper than " + std::to_string(kMaxDepth) +
                         " levels at offset " + std::to_string(p_.cur_.pos));
      }
    }
    ~Nest() { --p_.nesting_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& p_;
  };

  /// Sets an operator node's depth from its operands, within kMaxDepth.
  static NodePtr seal(std::shared_ptr<Node> n) {
    n->depth = 1 + std::max(n->lhs ? n->lhs->depth : 0u, n->rhs ? n->rhs->depth : 0u);
    if (n->depth > kMaxDepth) {
      throw ParseError("expression deeper than " + std::to_string(kMaxDepth) + " levels");
    }
    return n;
  }

  void expect(Tok k, const char* what) {
    if (!accept(k)) {
      throw ParseError(std::string("expected ") + what + " at offset " +
                       std::to_string(cur_.pos));
    }
  }

  static NodePtr make_bool_binary(Op op, NodePtr l, NodePtr r) {
    if (l->type != ValueType::kBool || r->type != ValueType::kBool) {
      throw TypeError("logical operator requires bool operands");
    }
    auto n = std::make_shared<Node>();
    n->op = op;
    n->lhs = std::move(l);
    n->rhs = std::move(r);
    n->type = ValueType::kBool;
    return seal(std::move(n));
  }

  NodePtr parse_or() {
    NodePtr l = parse_and();
    while (accept_kw("or")) l = make_bool_binary(Op::kOr, l, parse_and());
    return l;
  }

  NodePtr parse_and() {
    NodePtr l = parse_unary();
    while (accept_kw("and")) l = make_bool_binary(Op::kAnd, l, parse_unary());
    return l;
  }

  NodePtr parse_unary() {
    if (accept_kw("not")) {
      const Nest nest(*this);
      NodePtr operand = parse_unary();
      if (operand->type != ValueType::kBool) throw TypeError("'not' requires a bool operand");
      auto n = std::make_shared<Node>();
      n->op = Op::kNot;
      n->lhs = std::move(operand);
      n->type = ValueType::kBool;
      return seal(std::move(n));
    }
    return parse_cmp();
  }

  NodePtr parse_cmp() {
    NodePtr l = parse_sum();
    Op op;
    if (accept(Tok::kEq)) {
      op = Op::kEq;
    } else if (accept(Tok::kNe)) {
      op = Op::kNe;
    } else if (accept(Tok::kLt)) {
      op = Op::kLt;
    } else if (accept(Tok::kLe)) {
      op = Op::kLe;
    } else if (accept(Tok::kGt)) {
      op = Op::kGt;
    } else if (accept(Tok::kGe)) {
      op = Op::kGe;
    } else if (cur_.kind == Tok::kIdent && cur_.text == "in") {
      advance();
      return parse_in(std::move(l));
    } else {
      return l;
    }
    NodePtr r = parse_sum();
    if (l->type != r->type) {
      throw TypeError("comparison between " + to_string(l->type) + " and " +
                      to_string(r->type));
    }
    if ((op == Op::kLt || op == Op::kLe || op == Op::kGt || op == Op::kGe) &&
        l->type == ValueType::kBool) {
      throw TypeError("ordering comparison on bool");
    }
    auto n = std::make_shared<Node>();
    n->op = op;
    n->lhs = std::move(l);
    n->rhs = std::move(r);
    n->type = ValueType::kBool;
    return seal(std::move(n));
  }

  NodePtr parse_in(NodePtr l) {
    expect(Tok::kLBracket, "'['");
    auto n = std::make_shared<Node>();
    n->op = Op::kIn;
    n->type = ValueType::kBool;
    do {
      Value v = parse_literal_value();
      if (type_of(v) != l->type) {
        throw TypeError("'in' list element type mismatches subject");
      }
      n->list.push_back(std::move(v));
    } while (accept(Tok::kComma));
    expect(Tok::kRBracket, "']'");
    n->lhs = std::move(l);
    return seal(std::move(n));
  }

  Value parse_literal_value() {
    if (cur_.kind == Tok::kNumber) {
      Value v = cur_.number;
      advance();
      return v;
    }
    if (cur_.kind == Tok::kString) {
      Value v = cur_.text;
      advance();
      return v;
    }
    if (cur_.kind == Tok::kIdent && (cur_.text == "true" || cur_.text == "false")) {
      Value v = (cur_.text == "true");
      advance();
      return v;
    }
    throw ParseError("expected literal at offset " + std::to_string(cur_.pos));
  }

  NodePtr parse_sum() {
    NodePtr l = parse_term();
    for (;;) {
      Op op;
      if (accept(Tok::kPlus)) {
        op = Op::kAdd;
      } else if (accept(Tok::kMinus)) {
        op = Op::kSub;
      } else {
        return l;
      }
      l = make_arith(op, l, parse_term());
    }
  }

  NodePtr parse_term() {
    NodePtr l = parse_atom();
    for (;;) {
      Op op;
      if (accept(Tok::kStar)) {
        op = Op::kMul;
      } else if (accept(Tok::kSlash)) {
        op = Op::kDiv;
      } else {
        return l;
      }
      l = make_arith(op, l, parse_atom());
    }
  }

  static NodePtr make_arith(Op op, NodePtr l, NodePtr r) {
    if (l->type != ValueType::kNumber || r->type != ValueType::kNumber) {
      throw TypeError("arithmetic requires number operands");
    }
    auto n = std::make_shared<Node>();
    n->op = op;
    n->lhs = std::move(l);
    n->rhs = std::move(r);
    n->type = ValueType::kNumber;
    return seal(std::move(n));
  }

  NodePtr parse_atom() {
    if (accept(Tok::kLParen)) {
      const Nest nest(*this);
      NodePtr e = parse_or();
      expect(Tok::kRParen, "')'");
      return e;
    }
    if (cur_.kind == Tok::kNumber || cur_.kind == Tok::kString ||
        (cur_.kind == Tok::kIdent && (cur_.text == "true" || cur_.text == "false"))) {
      auto n = std::make_shared<Node>();
      n->op = Op::kLiteral;
      n->literal = parse_literal_value();
      n->type = type_of(n->literal);
      return n;
    }
    if (cur_.kind == Tok::kIdent) {
      // Here the ontology does its bounding work.
      const std::size_t slot = onto_.find(cur_.text);
      if (slot == Ontology::kNoSlot) {
        throw OntologyError("attribute not in ontology: " + cur_.text);
      }
      auto n = std::make_shared<Node>();
      n->op = Op::kAttr;
      n->attr = cur_.text;
      n->slot = static_cast<std::uint32_t>(slot);
      n->type = onto_.type_at(slot);
      advance();
      return n;
    }
    throw ParseError("expected expression at offset " + std::to_string(cur_.pos));
  }

  Lexer lexer_;
  const Ontology& onto_;
  Token cur_;
  std::size_t nesting_ = 0;
};

// What a node evaluates to. Strings are views into the Context's slots or
// the AST's literals, so evaluation copies no string.
using Ref = std::variant<bool, double, std::string_view>;

Ref ref_of(const Value& v) noexcept {
  switch (v.index()) {
    case 0: return std::get<bool>(v);
    case 1: return std::get<double>(v);
    default: return std::string_view(std::get<std::string>(v));
  }
}

Ref eval_node(const Node& n, const Context& ctx) {
  switch (n.op) {
    case Op::kLiteral: return ref_of(n.literal);
    case Op::kAttr:
      // Binding type-checked the slot, and the caller matched fingerprints,
      // so the slot holds a value of the declared type.
      if (!ctx.bound(n.slot)) throw OntologyError("attribute not bound: " + n.attr);
      return ref_of(ctx.at(n.slot));
    case Op::kNot: return !std::get<bool>(eval_node(*n.lhs, ctx));
    case Op::kAnd:
      // Short-circuit: policies often guard expensive attributes.
      if (!std::get<bool>(eval_node(*n.lhs, ctx))) return false;
      return eval_node(*n.rhs, ctx);
    case Op::kOr:
      if (std::get<bool>(eval_node(*n.lhs, ctx))) return true;
      return eval_node(*n.rhs, ctx);
    case Op::kEq: return eval_node(*n.lhs, ctx) == eval_node(*n.rhs, ctx);
    case Op::kNe: return !(eval_node(*n.lhs, ctx) == eval_node(*n.rhs, ctx));
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe: {
      const Ref a = eval_node(*n.lhs, ctx);
      const Ref b = eval_node(*n.rhs, ctx);
      int c;
      if (a.index() == 1) {
        const double x = std::get<double>(a), y = std::get<double>(b);
        c = (x < y) ? -1 : (x > y ? 1 : 0);
      } else {
        c = std::get<std::string_view>(a).compare(std::get<std::string_view>(b));
      }
      switch (n.op) {
        case Op::kLt: return c < 0;
        case Op::kLe: return c <= 0;
        case Op::kGt: return c > 0;
        default: return c >= 0;
      }
    }
    case Op::kIn: {
      const Ref subject = eval_node(*n.lhs, ctx);
      for (const Value& v : n.list) {
        if (ref_of(v) == subject) return true;
      }
      return false;
    }
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv: {
      const double a = std::get<double>(eval_node(*n.lhs, ctx));
      const double b = std::get<double>(eval_node(*n.rhs, ctx));
      switch (n.op) {
        case Op::kAdd: return a + b;
        case Op::kSub: return a - b;
        case Op::kMul: return a * b;
        default:
          if (b == 0.0) throw TypeError("division by zero in policy expression");
          return a / b;
      }
    }
  }
  throw PolicyError("corrupt AST");
}

void collect_attrs(const Node& n, std::set<std::string>& out) {
  if (n.op == Op::kAttr) out.insert(n.attr);
  if (n.lhs) collect_attrs(*n.lhs, out);
  if (n.rhs) collect_attrs(*n.rhs, out);
}

}  // namespace

// -------------------------------------------------------------- Expr ------

Expr Expr::compile(const std::string& source, const Ontology& onto) {
  Parser p(source, onto);
  std::shared_ptr<const Node> root = p.parse();
  return Expr(root, root->type, source, onto.fingerprint());
}

void Expr::check_binding(const Context& ctx) const {
  if (ctx.fingerprint() != fingerprint_) {
    throw OntologyError("context is bound to a different ontology than '" + source_ +
                        "' was compiled against");
  }
}

Value Expr::eval(const Context& ctx) const {
  check_binding(ctx);
  const Ref r = eval_node(*root_, ctx);
  switch (r.index()) {
    case 0: return std::get<bool>(r);
    case 1: return std::get<double>(r);
    default: return std::string(std::get<std::string_view>(r));
  }
}

bool Expr::test(const Context& ctx) const {
  if (type_ != ValueType::kBool) throw TypeError("test() on non-bool expression");
  check_binding(ctx);
  return std::get<bool>(eval_node(*root_, ctx));
}

std::vector<std::string> Expr::referenced_attributes() const {
  std::set<std::string> s;
  collect_attrs(*root_, s);
  return {s.begin(), s.end()};
}

}  // namespace tussle::policy
