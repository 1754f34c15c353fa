// Seeded byte-mutation fuzz of the policy language.
//
// Mutants of well-formed policy text go through Expr::compile. Each must
// either compile or throw a PolicyError subclass; each compiled expression
// must evaluate against random packet contexts or throw a PolicyError. Any
// other exception, a crash, or a sanitizer report is a finding. The fuzz is
// deterministic per seed, so a failure reproduces from the printed input.
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "policy/packet_adapter.hpp"
#include "sim/random.hpp"

namespace tussle::policy {
namespace {

const std::vector<std::string>& corpus() {
  static const std::vector<std::string> c = {
      "proto == 'control'",
      "proto == 'dns' and size > 512",
      "tos == 'premium' and size > 1100",
      "opaque and size < 192",
      "src_as in [3, 7]",
      "not encrypted or (dst_as in [1, 2, 3] and ttl >= 8)",
      "size * 2 + 10 - src_host / 4 != dst_host",
      "proto in ['web', 'mail', \"p2p\"] and payload_visible",
      "(tos != 'best-effort') == has_source_route",
      "size / (ttl - 64) > 0.5",
      "proto >= 'voip' or 1.25 <= size",
  };
  return c;
}

/// Bytes that steer mutants towards the grammar's edges.
constexpr char kInteresting[] = "()[]'\",.=!<>+-*/ _09aez\t\n\"\\\x7f\x80\xff";

std::string mutate(std::string s, sim::Rng& rng) {
  const int edits = static_cast<int>(rng.uniform_int(1, 2));
  for (int e = 0; e < edits; ++e) {
    const auto pos = [&] {
      return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(s.size())));
    };
    const auto byte = [&] {
      return rng.bernoulli(0.5)
                 ? kInteresting[rng.uniform_int(0, sizeof(kInteresting) - 2)]
                 : static_cast<char>(rng.uniform_int(0, 255));
    };
    switch (rng.uniform_int(0, 5)) {
      case 0:  // flip one bit
        if (!s.empty()) s[pos() % s.size()] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
        break;
      case 1:  // insert a byte
        s.insert(pos(), 1, byte());
        break;
      case 2:  // delete a run
        if (!s.empty()) {
          const std::size_t at = pos() % s.size();
          s.erase(at, static_cast<std::size_t>(rng.uniform_int(1, 6)));
        }
        break;
      case 3:  // overwrite a byte
        if (!s.empty()) s[pos() % s.size()] = byte();
        break;
      case 4: {  // duplicate a span in place
        if (s.empty()) break;
        const std::size_t at = pos() % s.size();
        const std::size_t len = static_cast<std::size_t>(rng.uniform_int(1, 12));
        s.insert(pos(), s.substr(at, len));
        break;
      }
      default: {  // splice in part of another corpus entry
        const std::string& other =
            corpus()[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(corpus().size()) - 1))];
        const std::size_t from = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(other.size()) - 1));
        s.insert(pos(), other.substr(from, static_cast<std::size_t>(rng.uniform_int(1, 16))));
        break;
      }
    }
  }
  return s;
}

net::Packet random_packet(sim::Rng& rng) {
  net::Packet p;
  p.src = net::Address{.provider = static_cast<net::AsId>(rng.uniform_int(0, 9)),
                       .subscriber = 1,
                       .host = static_cast<std::uint32_t>(rng.uniform_int(0, 1000))};
  p.dst = net::Address{.provider = static_cast<net::AsId>(rng.uniform_int(0, 9)),
                       .subscriber = 1,
                       .host = static_cast<std::uint32_t>(rng.uniform_int(0, 1000))};
  p.proto = static_cast<net::AppProto>(rng.uniform_int(0, 7));
  p.tos = static_cast<net::ServiceClass>(rng.uniform_int(0, 2));
  p.size_bytes = static_cast<std::uint32_t>(rng.uniform_int(0, 2000));
  p.ttl = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  p.encrypted = rng.bernoulli(0.3);
  if (rng.bernoulli(0.1)) p.source_route = net::SourceRoute{{1, 2}, 0};
  return p;
}

struct Tally {
  std::uint64_t compiled = 0;
  std::uint64_t rejected = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t eval_errors = 0;
};

/// Runs one input through compile and, when it compiles, evaluation.
/// Returns false (after recording a failure) on a non-policy exception.
bool run_one(const std::string& src, const Ontology& onto, sim::Rng& rng, Tally& t) {
  std::optional<Expr> e;
  try {
    e = Expr::compile(src, onto);
    ++t.compiled;
  } catch (const PolicyError&) {
    ++t.rejected;
    return true;
  } catch (const std::exception& ex) {
    ADD_FAILURE() << "compile threw a non-policy " << ex.what() << " on: " << src;
    return false;
  }
  for (int k = 0; k < 3; ++k) {
    const Context ctx = context_for_packet(random_packet(rng));
    try {
      if (e->result_type() == ValueType::kBool) {
        (void)e->test(ctx);
      } else {
        (void)e->eval(ctx);
      }
      ++t.evaluated;
    } catch (const PolicyError&) {
      ++t.eval_errors;
    } catch (const std::exception& ex) {
      ADD_FAILURE() << "eval threw a non-policy " << ex.what() << " on: " << src;
      return false;
    }
  }
  return true;
}

class PolicyByteFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PolicyByteFuzz, MutantsCompileOrThrowPolicyError) {
  constexpr std::uint64_t kInputs = 100'000;
  const Ontology onto = standard_packet_ontology();
  sim::Rng rng(GetParam());
  Tally t;
  for (std::uint64_t i = 0; i < kInputs; ++i) {
    const std::string& seed =
        corpus()[static_cast<std::size_t>(i % corpus().size())];
    // Mutants of mutants reach further from the corpus.
    std::string src = mutate(seed, rng);
    if (rng.bernoulli(0.25)) src = mutate(std::move(src), rng);
    if (!run_one(src, onto, rng, t)) break;
  }
  EXPECT_EQ(t.compiled + t.rejected, kInputs);
  // A fuzz whose mutants all fail (or all pass) is not exploring: both
  // outcomes must be common.
  EXPECT_GT(t.compiled, kInputs / 20);
  EXPECT_GT(t.rejected, kInputs / 20);
  EXPECT_GT(t.evaluated, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyByteFuzz, ::testing::Values(20021));

TEST(PolicyByteFuzz, MalformedNumbersAreParseErrors) {
  const Ontology onto = standard_packet_ontology();
  EXPECT_THROW(Expr::compile("size > " + std::string(400, '9'), onto), ParseError);
  EXPECT_THROW(Expr::compile("size > 1.2.3", onto), ParseError);  // not silently 1.2
  EXPECT_THROW(Expr::compile("size > 1..5", onto), ParseError);
  EXPECT_TRUE(Expr::compile("size > 1.", onto).test(context_for_packet(net::Packet{})));
}

TEST(PolicyByteFuzz, DeepNestingIsParseErrorNotStackOverflow) {
  const Ontology onto = standard_packet_ontology();
  EXPECT_THROW(Expr::compile(std::string(100'000, '(') + "true", onto), ParseError);
  std::string nots;
  for (int i = 0; i < 100'000; ++i) nots += "not ";
  EXPECT_THROW(Expr::compile(nots + "true", onto), ParseError);
  // A flat chain builds a deep AST too; evaluation would recurse through it.
  std::string chain = "size";
  for (int i = 0; i < 100'000; ++i) chain += " + 1";
  EXPECT_THROW(Expr::compile(chain + " > 0", onto), ParseError);
  // Nesting within the limit still compiles.
  EXPECT_TRUE(Expr::compile(std::string(50, '(') + "true" + std::string(50, ')'), onto)
                  .test(context_for_packet(net::Packet{})));
}

}  // namespace
}  // namespace tussle::policy
