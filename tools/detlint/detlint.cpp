// detlint — determinism lint for the tussle-net source tree.
//
// The simulator's headline property is bit-exact replay: the same seed must
// produce the same event ordering and the same stats on every run, on every
// compiler. This tool scans source files for constructs that silently break
// that contract and reports them, unless an allowlist entry records that the
// use was audited and found safe.
//
// Checks:
//   banned-random      std::random_device / rand() / wall-clock time /
//                      stdlib distributions anywhere outside src/sim/random,
//                      the one audited randomness module.
//   unordered-iter     std::unordered_{map,set} in hot-path subsystems
//                      (sim, net, routing, econ) — iteration order varies
//                      across libstdc++ versions and with pointer hashing;
//                      lookup-only uses must be allowlisted with a reason.
//   pointer-key-order  std::map/std::set keyed on a raw pointer: ordering
//                      then depends on allocation addresses, which ASLR
//                      randomizes between runs.
//   uninit-member      scalar struct/class members without a default
//                      initializer — reads of indeterminate values are both
//                      UB and a classic source of run-to-run divergence.
//   span-wall-clock    any wall-clock source (wall_now_seconds, <chrono>
//                      clocks) inside the causal-span module (sim/span*):
//                      span records carry simulated time only, or exported
//                      traces stop being byte-identical across runs.
//   timeseries-wall-clock
//                      the same wall-clock token list inside the time-series
//                      recorder (sim/timeseries*): sample ticks come from the
//                      simulated clock only, so CSV/JSON/dashboard exports
//                      stay byte-identical at any --jobs setting.
//   exec-wall-clock    every call site of wall_now_seconds(), the project's
//                      one audited wall-clock helper, anywhere in the tree.
//                      Wall time may feed observability exports (loop
//                      profiler, heartbeat, exec profiler) but never event
//                      order or a simulated value, so each call site must be
//                      audited and allowlisted with its data-flow argument.
//   hot-path-alloc     raw `new`/`delete` or std::make_shared in src/net or
//                      src/sim: the million-actor refactor (ROADMAP item 1)
//                      moves per-packet and per-event churn into arenas and
//                      pools, and tnbench's allocs_per_unit measurement
//                      only binds if new churn cannot appear silently. Each
//                      remaining direct allocation must be audited and
//                      allowlisted with the reason it is not per-packet
//                      churn. Not allocations, so not flagged: "= delete"
//                      declarations, #include lines, and placement
//                      `::new (ptr) T(...)` (but `::new (std::nothrow)`
//                      allocates and is flagged).
//   static-local       mutable function-local `static` in a hot-path
//                      subsystem: a hidden global whose lazy init races
//                      under the planned sharded event loop and whose state
//                      leaks between runs in one process (see also
//                      tools/sharedlint, which flags these repo-wide).
//   unordered-merge    range-for iteration over a variable declared as an
//                      unordered container: hash-order iteration feeding
//                      merged or exported output makes results depend on
//                      the stdlib's hash, not the seed.
//
// Usage: detlint [--allowlist FILE] DIR...
// Exit:  0 clean, 1 unallowlisted violations, 2 usage/IO error.

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Violation {
  std::string file;   // path as scanned (relative to the scan root if given so)
  std::size_t line;   // 1-based
  std::string check;
  std::string message;
  std::string source_line;
};

struct AllowEntry {
  std::string check;
  std::string path_suffix;
  std::string line_substring;  // empty = any line in the file
  mutable bool used = false;
};

// ------------------------------------------------------------ utilities --

bool ends_with_path(const std::string& path, const std::string& suffix) {
  if (suffix.size() > path.size()) return false;
  if (!std::equal(suffix.rbegin(), suffix.rend(), path.rbegin())) return false;
  // Require the match to start at a path-component boundary.
  const std::size_t start = path.size() - suffix.size();
  return start == 0 || path[start - 1] == '/';
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True if `token` occurs in `text` bounded by non-identifier characters.
bool contains_token(std::string_view text, std::string_view token) {
  std::size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end == text.size() || !is_ident_char(text[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

/// True if `text` has a `new` that allocates. Placement `::new (ptr) T`
/// only constructs into storage the caller already owns, so it does not
/// count unless the parenthesized argument names std::nothrow.
bool has_allocating_new(std::string_view text) {
  for (std::size_t pos = 0; (pos = text.find("new", pos)) != std::string_view::npos;) {
    const std::size_t start = pos;
    const std::size_t end = pos + 3;
    pos = end;
    const bool left_ok = start == 0 || !is_ident_char(text[start - 1]);
    const bool right_ok = end == text.size() || !is_ident_char(text[end]);
    if (!left_ok || !right_ok) continue;
    const bool global = start >= 2 && text.substr(start - 2, 2) == "::";
    std::size_t open = end;
    while (open < text.size() && text[open] == ' ') ++open;
    const std::size_t close =
        open < text.size() && text[open] == '(' ? text.find(')', open) : std::string_view::npos;
    const bool placement = global && close != std::string_view::npos &&
                           text.substr(open, close - open).find("nothrow") == std::string_view::npos;
    if (!placement) return true;
  }
  return false;
}

/// Replaces comments and string/char literal contents with spaces, keeping
/// newlines so line numbers survive. Handles //, /*...*/, "...", '...'.
std::string strip_comments_and_strings(const std::string& in) {
  std::string out = in;
  enum class State { kCode, kLine, kBlock, kString, kChar } state = State::kCode;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLine:
        if (c == '\n') state = State::kCode;
        else out[i] = ' ';
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < in.size() && in[i + 1] != '\n') out[++i] = ' ';
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < in.size() && in[i + 1] != '\n') out[++i] = ' ';
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

// ----------------------------------------------------------- the checks --

/// Identifiers that pull in wall-clock time, OS entropy, or stdlib random
/// machinery whose output differs across standard-library implementations.
constexpr std::string_view kBannedRandomTokens[] = {
    "random_device", "rand", "srand", "random", "drand48", "lrand48",
    "mrand48", "srand48", "getpid", "gettimeofday", "clock_gettime",
    "system_clock", "steady_clock", "high_resolution_clock", "mt19937",
    "mt19937_64", "minstd_rand", "default_random_engine",
    "uniform_int_distribution", "uniform_real_distribution",
    "normal_distribution", "exponential_distribution", "bernoulli_distribution",
    "poisson_distribution", "discrete_distribution",
};

// `time(` specifically (bare token "time" would flag SimTime etc.).
constexpr std::string_view kBannedRandomCalls[] = {"time (", "time("};

bool in_randomness_module(const std::string& path) {
  return path.find("sim/random") != std::string::npos;
}

/// Wall-clock sources that must never appear in the span-tracing module.
/// banned-random already catches the stdlib clocks; this list adds the
/// project's own (audited) wall-clock helper and the <chrono> umbrella, so
/// a span timestamp cannot be smuggled in through either route.
constexpr std::string_view kSpanWallClockTokens[] = {
    "wall_now_seconds", "chrono", "clock",
};

bool in_span_module(const std::string& path) {
  return path.find("sim/span") != std::string::npos;
}

/// The time-series recorder has the same contract as the span tracer: ticks
/// are simulated time only, so exports are byte-identical across runs and
/// --jobs settings. Same token list, its own check name.
bool in_timeseries_module(const std::string& path) {
  return path.find("sim/timeseries") != std::string::npos;
}

bool in_hot_path(const std::string& path) {
  for (const char* dir : {"/sim/", "/net/", "/routing/", "/econ/"}) {
    if (path.find(dir) != std::string::npos) return true;
  }
  return false;
}

/// Where the hot-path-alloc check applies: the subsystems whose per-packet /
/// per-event churn tnbench's allocs_per_unit measures and the arena refactor
/// targets.
bool in_alloc_hot_path(const std::string& path) {
  for (const char* dir : {"/sim/", "/net/"}) {
    if (path.find(dir) != std::string::npos) return true;
  }
  return false;
}

void check_line_tokens(const std::string& path, std::size_t lineno,
                       const std::string& stripped, const std::string& raw,
                       std::vector<Violation>& out) {
  if (!in_randomness_module(path)) {
    for (std::string_view tok : kBannedRandomTokens) {
      if (contains_token(stripped, tok)) {
        out.push_back({path, lineno, "banned-random",
                       "non-deterministic or non-portable randomness source '" +
                           std::string(tok) + "' outside sim/random",
                       trim(raw)});
      }
    }
    for (std::string_view call : kBannedRandomCalls) {
      if (std::string_view(stripped).find(call) != std::string_view::npos &&
          !contains_token(stripped, "next_time") && !contains_token(stripped, "sent_time")) {
        // contains "time(" as a bare call, not e.g. next_time()
        std::size_t pos = stripped.find(call);
        const bool left_ok = pos == 0 || !is_ident_char(stripped[pos - 1]);
        if (left_ok) {
          out.push_back({path, lineno, "banned-random",
                         "wall-clock time() call outside sim/random", trim(raw)});
        }
        break;
      }
    }
  }
  if (in_span_module(path)) {
    for (std::string_view tok : kSpanWallClockTokens) {
      if (contains_token(stripped, tok)) {
        out.push_back({path, lineno, "span-wall-clock",
                       "wall-clock source '" + std::string(tok) +
                           "' in the span module: span records carry simulated "
                           "time only, or traces diverge run to run",
                       trim(raw)});
      }
    }
  }
  if (in_timeseries_module(path)) {
    for (std::string_view tok : kSpanWallClockTokens) {
      if (contains_token(stripped, tok)) {
        out.push_back({path, lineno, "timeseries-wall-clock",
                       "wall-clock source '" + std::string(tok) +
                           "' in the time-series recorder: sample ticks carry "
                           "simulated time only, or exports diverge run to run",
                       trim(raw)});
      }
    }
  }
  // Every call site of the audited wall-clock helper. The span/timeseries
  // checks above already ban the token outright inside their modules, so
  // skip those here — one line should not report twice.
  if (!in_span_module(path) && !in_timeseries_module(path) &&
      contains_token(stripped, "wall_now_seconds")) {
    out.push_back({path, lineno, "exec-wall-clock",
                   "wall_now_seconds call site: wall-clock readings may feed "
                   "observability exports only, never event order or a "
                   "simulated value — audit the site and allowlist it",
                   trim(raw)});
  }
  if (in_hot_path(path)) {
    for (const char* tok : {"unordered_map", "unordered_set", "unordered_multimap",
                            "unordered_multiset"}) {
      if (contains_token(stripped, tok)) {
        out.push_back({path, lineno, "unordered-iter",
                       std::string("std::") + tok +
                           " in a hot-path subsystem: iteration order is not "
                           "reproducible across stdlib versions",
                       trim(raw)});
        break;
      }
    }
  }
  // Direct heap allocation in the packet/event subsystems. Deleted special
  // members ("= delete") are declarations, not allocations; nor is an
  // #include of <new> or a placement new.
  if (in_alloc_hot_path(path) && stripped.find("= delete") == std::string::npos &&
      stripped.find("=delete") == std::string::npos && trim(stripped).rfind("#include", 0) != 0) {
    for (const char* tok : {"new", "delete", "make_shared"}) {
      const bool hit = std::string_view(tok) == "new" ? has_allocating_new(stripped)
                                                     : contains_token(stripped, tok);
      if (hit) {
        out.push_back({path, lineno, "hot-path-alloc",
                       std::string("'") + tok +
                           "' in a packet/event hot-path subsystem: per-packet "
                           "or per-event heap churn is what the arena/pool "
                           "refactor removes and tnbench's allocs_per_unit "
                           "measures — audit the site and "
                           "allowlist it with why it is not per-packet churn",
                       trim(raw)});
        break;
      }
    }
  }
  // std::map< T* ...> / std::set< T* ...> — pointer-keyed ordering.
  for (const char* tmpl : {"std::map<", "std::set<", "std::multimap<", "std::multiset<"}) {
    std::size_t pos = stripped.find(tmpl);
    if (pos == std::string::npos) continue;
    // Inspect the first template argument (up to the first ',' or matching '>').
    std::size_t i = pos + std::string_view(tmpl).size();
    int depth = 0;
    std::string first_arg;
    for (; i < stripped.size(); ++i) {
      const char c = stripped[i];
      if (c == '<') ++depth;
      if (c == '>' && depth-- == 0) break;
      if (c == ',' && depth == 0) break;
      first_arg.push_back(c);
    }
    if (first_arg.find('*') != std::string::npos) {
      out.push_back({path, lineno, "pointer-key-order",
                     "ordered container keyed on a raw pointer: ordering depends "
                     "on allocation addresses, which vary run to run",
                     trim(raw)});
    }
  }
}

/// Scalar types whose members must carry a default initializer.
bool is_scalar_type(const std::vector<std::string>& type_tokens) {
  static const std::string_view kScalars[] = {
      "bool", "int", "unsigned", "long", "short", "char", "float", "double",
      "size_t", "std::size_t", "ptrdiff_t", "std::ptrdiff_t",
      "int8_t", "int16_t", "int32_t", "int64_t",
      "uint8_t", "uint16_t", "uint32_t", "uint64_t",
      "std::int8_t", "std::int16_t", "std::int32_t", "std::int64_t",
      "std::uint8_t", "std::uint16_t", "std::uint32_t", "std::uint64_t",
      // Project-local integer aliases (net/address.hpp, net/forwarding.hpp).
      "NodeId", "LinkId", "AsId", "IfIndex",
  };
  if (type_tokens.empty()) return false;
  for (const std::string& t : type_tokens) {
    bool known = false;
    for (std::string_view s : kScalars) {
      if (t == s) {
        known = true;
        break;
      }
    }
    if (!known) return false;  // any non-scalar token (vector<...>, const, &) disqualifies
  }
  return true;
}

/// Structural scan for scalar members lacking initializers. Tracks brace
/// scopes and classifies each '{' as record (struct/class/union), enum, or
/// other (function body, namespace, initializer) from the tokens preceding
/// it; member statements are only inspected directly inside record scopes.
void check_uninit_members(const std::string& path, const std::string& stripped,
                          const std::vector<std::string>& raw_lines,
                          std::vector<Violation>& out) {
  enum class Scope { kRecord, kOther };
  std::vector<Scope> scopes;
  std::string stmt;           // tokens since the last ';' '{' '}' at this level
  std::size_t stmt_line = 1;  // line where the current statement started
  std::size_t lineno = 1;
  bool stmt_started = false;

  auto flush_member_check = [&](const std::string& statement, std::size_t at_line) {
    if (scopes.empty() || scopes.back() != Scope::kRecord) return;
    std::istringstream is(statement);
    std::vector<std::string> tokens;
    std::string tok;
    while (is >> tok) tokens.push_back(tok);
    if (tokens.empty()) return;
    // Skip declarations that are not plain data members.
    static const std::string_view kSkipLead[] = {
        "using", "typedef", "friend", "static", "constexpr", "template",
        "enum", "struct", "class", "return", "explicit", "virtual", "operator",
    };
    for (std::string_view s : kSkipLead) {
      if (tokens.front() == s) return;
    }
    std::string body;
    for (const std::string& t : tokens) {
      if (!body.empty()) body.push_back(' ');
      body += t;
    }
    if (body.find('=') != std::string::npos) return;   // has initializer
    if (body.find('(') != std::string::npos) return;   // function decl
    if (body.find('[') != std::string::npos) return;   // array (rare; audit by hand)
    if (body.find('#') != std::string::npos) return;   // preprocessor remnant
    // A lone ':' (not part of a '::' qualifier) marks a bitfield.
    for (std::size_t k = 0; k < body.size(); ++k) {
      if (body[k] == ':' && (k == 0 || body[k - 1] != ':') &&
          (k + 1 == body.size() || body[k + 1] != ':')) {
        return;
      }
    }
    // Last token is the member name; everything before must be scalar type tokens.
    if (tokens.size() < 2) return;
    std::string name = tokens.back();
    std::vector<std::string> type_tokens(tokens.begin(), tokens.end() - 1);
    if (!type_tokens.empty() && type_tokens.front() == "mutable") {
      type_tokens.erase(type_tokens.begin());
    }
    if (!is_scalar_type(type_tokens)) return;
    std::string raw = at_line - 1 < raw_lines.size() ? trim(raw_lines[at_line - 1]) : "";
    out.push_back({path, at_line, "uninit-member",
                   "scalar member '" + name +
                       "' has no default initializer; an unwritten read is UB "
                       "and diverges run to run",
                   raw});
  };

  for (std::size_t i = 0; i < stripped.size(); ++i) {
    const char c = stripped[i];
    if (c == '\n') {
      ++lineno;
      stmt.push_back(' ');
      continue;
    }
    if (c == '{') {
      // Classify this scope from the pending statement text.
      const bool is_record = (contains_token(stmt, "struct") || contains_token(stmt, "class") ||
                              contains_token(stmt, "union")) &&
                             !contains_token(stmt, "enum") &&
                             stmt.find('(') == std::string::npos &&
                             stmt.find('=') == std::string::npos;
      scopes.push_back(is_record ? Scope::kRecord : Scope::kOther);
      stmt.clear();
      stmt_started = false;
      continue;
    }
    if (c == '}') {
      if (!scopes.empty()) scopes.pop_back();
      stmt.clear();
      stmt_started = false;
      continue;
    }
    if (c == ';') {
      flush_member_check(stmt, stmt_line);
      stmt.clear();
      stmt_started = false;
      continue;
    }
    if (c == ':') {
      // Access specifiers end a "statement" of their own; splitting here
      // keeps the next member's reported line accurate.
      const std::string t = trim(stmt);
      if (t == "public" || t == "private" || t == "protected") {
        stmt.clear();
        stmt_started = false;
        continue;
      }
    }
    if (!stmt_started && std::isspace(static_cast<unsigned char>(c)) == 0) {
      stmt_started = true;
      stmt_line = lineno;
    }
    stmt.push_back(c);
  }
}

/// Structural scan for mutable function-local statics in hot-path
/// subsystems. Same scope walk as check_uninit_members, but classifying
/// namespaces and enums too, so only genuine function-body scopes are
/// inspected (a namespace-scope `static` is internal linkage, not a local).
void check_static_locals(const std::string& path, const std::string& stripped,
                         const std::vector<std::string>& raw_lines,
                         std::vector<Violation>& out) {
  if (!in_hot_path(path) || in_randomness_module(path)) return;
  enum class Scope { kNamespace, kRecord, kEnum, kBody };
  std::vector<Scope> scopes;
  std::string stmt;
  std::size_t stmt_line = 1;
  std::size_t lineno = 1;
  bool stmt_started = false;

  auto flush = [&](const std::string& statement, std::size_t at_line) {
    if (scopes.empty() || scopes.back() != Scope::kBody) return;
    std::istringstream is(statement);
    std::string first;
    if (!(is >> first)) return;
    if (first != "static" && first != "thread_local") return;
    if (contains_token(statement, "const") || contains_token(statement, "constexpr") ||
        contains_token(statement, "constinit")) {
      return;
    }
    std::string raw = at_line - 1 < raw_lines.size() ? trim(raw_lines[at_line - 1]) : "";
    out.push_back({path, at_line, "static-local",
                   "mutable function-local static in a hot-path subsystem: hidden "
                   "global state that outlives the run and races under a sharded "
                   "event loop",
                   raw});
  };

  for (std::size_t i = 0; i < stripped.size(); ++i) {
    const char c = stripped[i];
    if (c == '\n') {
      ++lineno;
      stmt.push_back(' ');
      continue;
    }
    if (c == '{') {
      Scope s = Scope::kBody;
      if (contains_token(stmt, "namespace")) {
        s = Scope::kNamespace;
      } else if (contains_token(stmt, "enum")) {
        s = Scope::kEnum;
      } else if ((contains_token(stmt, "struct") || contains_token(stmt, "class") ||
                  contains_token(stmt, "union")) &&
                 stmt.find('(') == std::string::npos && stmt.find('=') == std::string::npos) {
        s = Scope::kRecord;
      }
      scopes.push_back(s);
      stmt.clear();
      stmt_started = false;
      continue;
    }
    if (c == '}') {
      if (!scopes.empty()) scopes.pop_back();
      stmt.clear();
      stmt_started = false;
      continue;
    }
    if (c == ';') {
      flush(stmt, stmt_line);
      stmt.clear();
      stmt_started = false;
      continue;
    }
    if (c == ':') {
      const std::string t = trim(stmt);
      if (t == "public" || t == "private" || t == "protected") {
        stmt.clear();
        stmt_started = false;
        continue;
      }
    }
    if (!stmt_started && std::isspace(static_cast<unsigned char>(c)) == 0) {
      stmt_started = true;
      stmt_line = lineno;
    }
    stmt.push_back(c);
  }
}

/// Pass 1 of unordered-merge: declarator names of unordered containers.
void collect_unordered_names(const std::string& stripped_line,
                             std::vector<std::string>& names) {
  static const std::string_view kContainers[] = {"unordered_map", "unordered_set",
                                                 "unordered_multimap", "unordered_multiset"};
  for (std::string_view cont : kContainers) {
    std::size_t pos = stripped_line.find(cont);
    if (pos == std::string::npos) continue;
    std::size_t i = stripped_line.find('<', pos);
    if (i == std::string::npos) return;
    int depth = 0;
    for (; i < stripped_line.size(); ++i) {
      if (stripped_line[i] == '<') ++depth;
      if (stripped_line[i] == '>' && --depth == 0) {
        ++i;
        break;
      }
    }
    while (i < stripped_line.size() &&
           std::isspace(static_cast<unsigned char>(stripped_line[i])) != 0) {
      ++i;
    }
    std::string name;
    while (i < stripped_line.size() && is_ident_char(stripped_line[i])) {
      name.push_back(stripped_line[i++]);
    }
    if (!name.empty()) names.push_back(std::move(name));
    return;
  }
}

/// Pass 2 of unordered-merge: a range-for whose range is one of the
/// collected names iterates in hash order.
void check_unordered_merge(const std::string& path, std::size_t lineno,
                           const std::string& stripped, const std::string& raw,
                           const std::vector<std::string>& unordered_names,
                           std::vector<Violation>& out) {
  if (!contains_token(stripped, "for")) return;
  const std::size_t colon = stripped.find(':');
  if (colon == std::string::npos) return;
  for (const std::string& name : unordered_names) {
    std::size_t pos = stripped.find(name, colon);
    while (pos != std::string::npos) {
      const bool left_ok = pos == 0 || !is_ident_char(stripped[pos - 1]);
      const std::size_t end = pos + name.size();
      const bool right_ok = end >= stripped.size() || !is_ident_char(stripped[end]);
      if (left_ok && right_ok) {
        out.push_back({path, lineno, "unordered-merge",
                       "range-for over unordered container '" + name +
                           "': hash-order iteration feeding merged or exported "
                           "output is not reproducible across stdlib versions",
                       trim(raw)});
        return;
      }
      pos = stripped.find(name, pos + 1);
    }
  }
}

// -------------------------------------------------------------- driver ---

std::optional<std::vector<AllowEntry>> load_allowlist(const std::string& file) {
  std::ifstream in(file);
  if (!in) return std::nullopt;
  std::vector<AllowEntry> entries;
  std::string line;
  while (std::getline(in, line)) {
    const std::string t = trim(line);
    if (t.empty() || t[0] == '#') continue;
    std::istringstream is(t);
    AllowEntry e;
    is >> e.check >> e.path_suffix;
    std::string rest;
    std::getline(is, rest);
    e.line_substring = trim(rest);
    if (e.check.empty() || e.path_suffix.empty()) {
      std::cerr << "detlint: malformed allowlist line: " << line << "\n";
      return std::nullopt;
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

bool is_allowed(const Violation& v, const std::vector<AllowEntry>& allow) {
  for (const AllowEntry& e : allow) {
    if (e.check != v.check && e.check != "*") continue;
    if (!ends_with_path(v.file, e.path_suffix)) continue;
    if (!e.line_substring.empty() &&
        v.source_line.find(e.line_substring) == std::string::npos) {
      continue;
    }
    e.used = true;
    return true;
  }
  return false;
}

bool scannable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string allowlist_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--allowlist") {
      if (i + 1 >= argc) {
        std::cerr << "detlint: --allowlist requires a file argument\n";
        return 2;
      }
      allowlist_file = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: detlint [--allowlist FILE] DIR...\n";
      return 0;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    std::cerr << "usage: detlint [--allowlist FILE] DIR...\n";
    return 2;
  }

  std::vector<AllowEntry> allow;
  if (!allowlist_file.empty()) {
    auto loaded = load_allowlist(allowlist_file);
    if (!loaded) {
      std::cerr << "detlint: cannot read allowlist " << allowlist_file << "\n";
      return 2;
    }
    allow = std::move(*loaded);
  }

  std::vector<Violation> violations;
  std::size_t files_scanned = 0;
  for (const std::string& root : roots) {
    if (!fs::exists(root)) {
      std::cerr << "detlint: no such path: " << root << "\n";
      return 2;
    }
    std::vector<fs::path> files;
    if (fs::is_directory(root)) {
      for (const auto& entry : fs::recursive_directory_iterator(root)) {
        if (entry.is_regular_file() && scannable(entry.path())) files.push_back(entry.path());
      }
    } else {
      files.push_back(root);
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& p : files) {
      std::ifstream in(p);
      if (!in) {
        std::cerr << "detlint: cannot read " << p << "\n";
        return 2;
      }
      std::stringstream buf;
      buf << in.rdbuf();
      const std::string raw = buf.str();
      const std::string stripped = strip_comments_and_strings(raw);
      const std::vector<std::string> raw_lines = split_lines(raw);
      const std::vector<std::string> stripped_lines = split_lines(stripped);
      const std::string path = p.generic_string();
      std::vector<std::string> unordered_names;
      for (const std::string& line : stripped_lines) {
        collect_unordered_names(line, unordered_names);
      }
      for (std::size_t i = 0; i < stripped_lines.size(); ++i) {
        check_line_tokens(path, i + 1, stripped_lines[i],
                          i < raw_lines.size() ? raw_lines[i] : "", violations);
        check_unordered_merge(path, i + 1, stripped_lines[i],
                              i < raw_lines.size() ? raw_lines[i] : "", unordered_names,
                              violations);
      }
      check_uninit_members(path, stripped, raw_lines, violations);
      check_static_locals(path, stripped, raw_lines, violations);
      ++files_scanned;
    }
  }

  std::size_t reported = 0, allowed = 0;
  for (const Violation& v : violations) {
    if (is_allowed(v, allow)) {
      ++allowed;
      continue;
    }
    ++reported;
    std::cerr << v.file << ":" << v.line << ": [" << v.check << "] " << v.message << "\n";
    if (!v.source_line.empty()) std::cerr << "    " << v.source_line << "\n";
  }
  for (const AllowEntry& e : allow) {
    if (!e.used) {
      std::cerr << "detlint: warning: unused allowlist entry: " << e.check << " "
                << e.path_suffix << (e.line_substring.empty() ? "" : " " + e.line_substring)
                << "\n";
    }
  }
  std::cerr << "detlint: " << files_scanned << " files, " << reported << " violation"
            << (reported == 1 ? "" : "s") << " (" << allowed << " allowlisted)\n";
  return reported == 0 ? 0 : 1;
}
