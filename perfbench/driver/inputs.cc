#include "inputs.h"

#include <cstdio>
#include <set>
#include <utility>

#include "bench.h"

namespace perfbench {

namespace {

std::string Const(const char* prefix, uint32_t i) {
  return prefix + std::to_string(i);
}

}  // namespace

std::string OpenWorldProgram(uint64_t seed, uint64_t index, int num_queries,
                             int min_facts, int max_facts) {
  Rng rng(seed, "open-world", index);
  const int facts = rng.Between(min_facts, max_facts);
  // The ontology variant and the query shapes cycle with the index, so
  // every run sees the same mix of them whatever the seed; the facts and
  // the predicates in the queries are random.
  std::string r[2] = {"r1", "r2"};
  std::string a[2] = {"a0", "a1"};
  if (index & 4) std::swap(r[0], r[1]);
  if (index & 8) std::swap(a[0], a[1]);

  std::string text;
  const uint32_t domain = static_cast<uint32_t>(facts * 2 / 5 + 1);
  // A quarter of the facts are unary, alternating a0 / a1: each starts an
  // infinite chain, so their number sets the portion's size.
  std::set<std::string> seen;
  const size_t unary = static_cast<size_t>(facts) / 4;
  while (seen.size() < static_cast<size_t>(facts)) {
    std::string fact;
    if (seen.size() < unary) {
      fact = a[seen.size() % 2] + "(" + Const("c", rng.Below(domain)) + ")";
    } else {
      fact = r[rng.Below(2)] + "(" + Const("c", rng.Below(domain)) + ", " +
             Const("c", rng.Below(domain)) + ")";
    }
    if (seen.insert(fact).second) text += fact + ".\n";
  }

  // Existential recursion: a0 -> a1 -> a0 -> ... never closes.
  text += a[0] + "(X) -> " + r[0] + "(X,Y), " + a[1] + "(Y).\n";
  text += a[1] + "(X) -> " + r[1] + "(X,Y), " + a[0] + "(Y).\n";
  const std::string third[4] = {
      r[0] + "(X,Y), " + a[1] + "(Y) -> " + a[0] + "(X).\n",
      r[1] + "(X,Y) -> " + r[0] + "(Y,X).\n",
      r[0] + "(X,Y), " + a[0] + "(X) -> " + a[1] + "(Y).\n",
      r[1] + "(X,Y), " + a[0] + "(Y) -> " + a[1] + "(X).\n",
  };
  text += third[index % 4];

  for (int q = 0; q < num_queries; ++q) {
    char name[16];
    std::snprintf(name, sizeof(name), "q%02d", q);
    const int disjuncts = q % 3 == 2 ? 2 : 1;
    for (int d = 0; d < disjuncts; ++d) {
      const int length = 1 + (q + d) % 2;
      std::string body;
      for (int j = 0; j < length; ++j) {
        const std::string x = "X" + std::to_string(j);
        const std::string y = "X" + std::to_string(j + 1);
        const std::string& rel = r[rng.Below(2)];
        body += rng.Chance(0.7) ? rel + "(" + x + "," + y + "), "
                                : rel + "(" + y + "," + x + "), ";
      }
      body += a[rng.Below(2)] + "(X" + std::to_string(length) + ")";
      text += std::string(name) + "(X0) :- " + body + ".\n";
    }
  }
  return text;
}

std::string ClosedWorldRules() {
  return R"(e(X,Y), e(Y,Z) -> p(X,Z).
m(X), e(X,Y) -> m1(Y).
p(X,Y), e(Y,X) -> back(X,Y).
m1(X), m(X) -> hub(X).
hub(X) -> owns(X,N), item(N).
path_a(X) :- e(X,Y), e(Y,Z), e(Z,W), m(W).
path_b(X,Z) :- m(X), p(X,Y), p(Y,Z), m1(Z).
path_c(X) :- p(X,Y), p(Y,Z), m(Z).
triangle_a(X) :- e(X,Y), e(Y,Z), e(Z,X).
triangle_b(X) :- p(X,Y), e(Y,Z), e(Z,X).
marker_a(X) :- m1(X), e(X,Y), p(Y,Z), m1(Z).
marker_b(X) :- owns(X,N), item(N), p(X,Y), m1(Y).
marker_c(X) :- m1(X), e(X,Y), m1(Y).
marker_c(X) :- hub(X), back(X,Y).
)";
}

std::string ClosedWorldShape(const std::string& query_name) {
  return query_name.substr(0, query_name.find('_'));
}

std::vector<gqe::Atom> ClosedWorldFacts(uint64_t seed, uint64_t index,
                                        int min_nodes, int max_nodes) {
  Rng rng(seed, "closed-world", index);
  const uint32_t n = static_cast<uint32_t>(rng.Between(min_nodes, max_nodes));
  std::vector<gqe::Atom> facts;
  facts.reserve(n * 2 + n / 8);
  for (uint32_t v = 0; v < n; ++v) {
    const gqe::Term from = gqe::Term::Constant(Const("v", v));
    for (int k = 0; k < 2; ++k) {
      uint32_t w = rng.Below(n - 1);
      if (w >= v) ++w;  // no self loops
      facts.push_back(gqe::Atom::Make(
          "e", {from, gqe::Term::Constant(Const("v", w))}));
    }
    if (rng.Chance(0.1)) facts.push_back(gqe::Atom::Make("m", {from}));
  }
  return facts;
}

std::string FactsText(const std::vector<gqe::Atom>& facts) {
  std::string text;
  for (const gqe::Atom& fact : facts) text += fact.ToString() + ".\n";
  return text;
}

}  // namespace perfbench
