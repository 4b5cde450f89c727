// Failure injection: exhausted budgets, truncations and malformed inputs
// must be reported honestly (flags, not wrong answers) and never crash.

#include <gtest/gtest.h>

#include "chase/chase.h"
#include "fc/witness.h"
#include "guarded/chase_tree.h"
#include "linear/rewriting.h"
#include "omq/evaluation.h"
#include "parser/parser.h"
#include "query/evaluation.h"

namespace gqe {
namespace {

TEST(FailureTest, ChaseFactBudgetReportsIncomplete) {
  TgdSet sigma = ParseTgds("fla(X) -> flb(X, Y), fla(Y).");
  Instance db = ParseDatabase("fla(f1).");
  ChaseOptions options;
  options.budget.max_facts = 10;
  ChaseResult result = Chase(db, sigma, options);
  EXPECT_FALSE(result.complete);
  EXPECT_LE(result.instance.size(), 13u);
  // The produced prefix is still a sound chase portion.
  EXPECT_TRUE(db.SubsetOf(result.instance));
}

TEST(FailureTest, ChaseLevelBudgetIsSharp) {
  TgdSet sigma = ParseTgds("flc(X) -> fld(X, Y), flc(Y).");
  Instance db = ParseDatabase("flc(f2).");
  for (int budget : {0, 1, 2}) {
    ChaseOptions options;
    options.max_level = budget;
    ChaseResult result = Chase(db, sigma, options);
    EXPECT_LE(result.max_level_built, budget) << budget;
  }
}

TEST(FailureTest, ChaseTreeTruncationFlagged) {
  TgdSet sigma = ParseTgds("fle(X) -> flf(X, Y), fle(Y).");
  Instance db = ParseDatabase("fle(f3).");
  ChaseTreeOptions options;
  options.budget.max_facts = 5;
  options.blocking_repeats = 100;  // effectively no blocking
  ChaseTree tree = BuildChaseTree(db, sigma, options);
  EXPECT_TRUE(tree.truncated);
}

TEST(FailureTest, BoundedChaseFallbackNeverClaimsExactness) {
  // A non-guarded, non-terminating set forces the fallback.
  TgdSet sigma = ParseTgds(R"(
    flg(X, Y), flg(Y, Z) -> flh(X).
    flg(X, W) -> flg(W, V).
  )");
  Omq omq = Omq::WithFullDataSchema(sigma, ParseUcq("flq(X) :- flh(X)."));
  Instance db = ParseDatabase("flg(f4, f5).");
  OmqEvalOptions options;
  options.fallback_chase_level = 2;
  OmqEvalResult result = EvaluateOmq(omq, db, options);
  EXPECT_FALSE(result.exact);
  EXPECT_EQ(result.method, "bounded-chase");
}

TEST(FailureTest, RewritingCapReportsIncomplete) {
  // A rewriting that would explode: many mutually-feeding inclusion
  // dependencies with a tiny disjunct cap.
  TgdSet sigma = ParseTgds(R"(
    fwa(X, Y) -> fwb(X, Y).
    fwb(X, Y) -> fwc(X, Y).
    fwc(X, Y) -> fwa(Y, X).
    fwa(X, Y) -> fwc(Y, X).
  )");
  UCQ q = ParseUcq("fwq() :- fwa(X, Y), fwb(Y, Z).");
  RewriteOptions options;
  options.max_disjuncts = 3;
  RewriteResult result = RewriteUnderLinearTgds(q, sigma, options);
  EXPECT_FALSE(result.complete);
  EXPECT_LE(result.rewriting.num_disjuncts(), 3u);
}

TEST(FailureTest, WitnessBudgetFailureIsHonest) {
  // Starve the witness builder: it must either produce a *validated*
  // model or say is_model = false — never an unvalidated instance.
  TgdSet sigma = ParseTgds("fva(X) -> fvb(X, Y), fva(Y).");
  Instance db = ParseDatabase("fva(f6).");
  FiniteWitnessOptions options;
  options.restricted_chase_facts = 3;
  options.budget.max_facts = 4;
  FiniteWitness witness = BuildFiniteWitness(db, sigma, 2, options);
  if (witness.is_model) {
    EXPECT_TRUE(Satisfies(witness.model, sigma));
  }
  // Either way the database is contained.
  EXPECT_TRUE(db.SubsetOf(witness.model));
}

TEST(FailureTest, ParserRecoversPositionOnGarbage) {
  struct BadCase {
    const char* text;
  };
  const BadCase cases[] = {
      {"pxq( ."},
      {"pxr(a b)."},
      {"pxr(a, b)"},            // missing dot
      {"-> ."},                 // empty head
      {"pxr(a,b). pxr(a)."},    // arity clash
      {"pxq(X) :- ."},          // empty body
      {"$$$."},
  };
  for (const BadCase& c : cases) {
    ParseResult result = ParseProgram(c.text);
    EXPECT_FALSE(result.ok) << c.text;
    EXPECT_FALSE(result.error.empty()) << c.text;
  }
}

TEST(FailureTest, EmptyProgramIsFine) {
  ParseResult result = ParseProgram("  % nothing but comments\n");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.program.database.size(), 0u);
}

TEST(FailureTest, EvaluationOnEmptyDatabase) {
  Instance empty;
  CQ cq = ParseCq("feq(X) :- fee(X, Y).");
  EXPECT_TRUE(EvaluateCQ(cq, empty).empty());
  EXPECT_FALSE(HoldsCQ(cq, empty, {Term::Constant("nobody")}));
}

TEST(FailureTest, ArityMismatchedCandidateIsNotAnAnswer) {
  CQ cq = ParseCq("fez(X) :- fee(X, Y).");
  Instance db = ParseDatabase("fee(a, b).");
  EXPECT_FALSE(HoldsCQ(cq, db, {}));  // too few components
  EXPECT_FALSE(HoldsCQ(cq, db, {Term::Constant("a"), Term::Constant("b")}));
  EXPECT_TRUE(HoldsCQ(cq, db, {Term::Constant("a")}));
}

TEST(FailureTest, OmqOnEmptyDatabase) {
  TgdSet sigma = ParseTgds("fga(X) -> fgb(X).");
  Omq omq = Omq::WithFullDataSchema(sigma, ParseUcq("fgq(X) :- fgb(X)."));
  Instance empty;
  OmqEvalResult result = EvaluateOmq(omq, empty);
  EXPECT_TRUE(result.exact);
  EXPECT_TRUE(result.answers.empty());
}

TEST(FailureTest, EmptyBodyTgdOnEmptyDatabase) {
  // An empty-body rule fires even over the empty database, and only
  // once: round 1 repeats the full pass (its delta still starts at fact
  // 0), which must not find the empty-body trigger again. The budget
  // turns a refiring engine into a fast failure instead of a hang.
  TgdSet sigma = ParseTgds("-> fha(Z). fha(X), fha(Y) -> fhb(X, Y).");
  Instance empty;
  ChaseOptions options;
  options.budget.max_facts = 100;
  ChaseResult result = Chase(empty, sigma, options);
  EXPECT_TRUE(result.complete);
  ASSERT_EQ(result.instance.size(), 2u);
  const Term null = result.instance.atom(0).args()[0];
  EXPECT_TRUE(null.IsNull());
  EXPECT_TRUE(result.instance.Contains(Atom::Make("fhb", {null, null})));
  EXPECT_EQ(result.triggers_fired, 2u);
}

}  // namespace
}  // namespace gqe
