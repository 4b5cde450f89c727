#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/instance.h"
#include "query/containment.h"
#include "query/contraction.h"
#include "query/core.h"
#include "query/cq.h"
#include "query/evaluation.h"
#include "query/homomorphism.h"
#include "query/tw_evaluation.h"
#include "workload/generators.h"

namespace gqe {
namespace {

Term C(const char* name) { return Term::Constant(name); }
Term V(const char* name) { return Term::Variable(name); }

/// A small directed-edge database: a path a->b->c->d plus a loop at e.
Instance PathDb() {
  Instance db;
  db.Insert(Atom::Make("E", {C("pa"), C("pb")}));
  db.Insert(Atom::Make("E", {C("pb"), C("pc")}));
  db.Insert(Atom::Make("E", {C("pc"), C("pd")}));
  db.Insert(Atom::Make("E", {C("pe"), C("pe")}));
  return db;
}

TEST(CqTest, ValidationCatchesUnsafeAnswerVar) {
  CQ bad({V("X")}, {Atom::Make("E", {V("Y"), V("Z")})});
  std::string why;
  EXPECT_FALSE(bad.Validate(&why));
  EXPECT_NE(why.find("unsafe"), std::string::npos);
  CQ good({V("X")}, {Atom::Make("E", {V("X"), V("Z")})});
  EXPECT_TRUE(good.Validate(&why)) << why;
}

TEST(CqTest, VariablePartition) {
  CQ cq({V("X")}, {Atom::Make("E", {V("X"), V("Y")}),
                   Atom::Make("E", {V("Y"), V("Z")})});
  EXPECT_EQ(cq.AllVariables().size(), 3u);
  auto existential = cq.ExistentialVariables();
  EXPECT_EQ(existential.size(), 2u);
  EXPECT_TRUE(std::find(existential.begin(), existential.end(), V("X")) ==
              existential.end());
}

TEST(CqTest, CanonicalInstanceFreezesVariables) {
  CQ cq({V("X")}, {Atom::Make("E", {V("X"), V("Y")})});
  std::unordered_map<Term, Term> frozen;
  Instance canonical = cq.CanonicalInstance(&frozen);
  EXPECT_EQ(canonical.size(), 1u);
  EXPECT_EQ(frozen.size(), 2u);
  EXPECT_TRUE(canonical.Contains(
      Atom::Make("E", {CQ::FrozenConstant(V("X")), CQ::FrozenConstant(V("Y"))})));
}

TEST(EvaluationTest, PathQueryAnswers) {
  // q(X, Z) :- E(X, Y), E(Y, Z): pairs two steps apart.
  CQ cq({V("X"), V("Z")},
        {Atom::Make("E", {V("X"), V("Y")}), Atom::Make("E", {V("Y"), V("Z")})});
  auto answers = EvaluateCQ(cq, PathDb());
  // (pa,pc), (pb,pd), (pe,pe).
  EXPECT_EQ(answers.size(), 3u);
  EXPECT_TRUE(HoldsCQ(cq, PathDb(), {C("pa"), C("pc")}));
  EXPECT_TRUE(HoldsCQ(cq, PathDb(), {C("pe"), C("pe")}));
  EXPECT_FALSE(HoldsCQ(cq, PathDb(), {C("pa"), C("pd")}));
}

TEST(EvaluationTest, BooleanQueries) {
  CQ three_path({}, {Atom::Make("E", {V("X1"), V("X2")}),
                     Atom::Make("E", {V("X2"), V("X3")}),
                     Atom::Make("E", {V("X3"), V("X4")})});
  EXPECT_TRUE(HoldsBooleanCQ(three_path, PathDb()));
  CQ triangle({}, {Atom::Make("E", {V("A"), V("B")}),
                   Atom::Make("E", {V("B"), V("C")}),
                   Atom::Make("E", {V("C"), V("A")})});
  Instance db = PathDb();
  EXPECT_TRUE(HoldsBooleanCQ(triangle, db));  // the loop at pe matches
  Instance no_loop;
  no_loop.Insert(Atom::Make("E", {C("pa"), C("pb")}));
  no_loop.Insert(Atom::Make("E", {C("pb"), C("pc")}));
  EXPECT_FALSE(HoldsBooleanCQ(triangle, no_loop));
}

TEST(EvaluationTest, ConstantsInQuery) {
  CQ cq({V("X")}, {Atom::Make("E", {C("pa"), V("X")})});
  auto answers = EvaluateCQ(cq, PathDb());
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0][0], C("pb"));
}

TEST(EvaluationTest, UcqUnionsAnswers) {
  CQ q1({V("X")}, {Atom::Make("E", {C("pa"), V("X")})});
  CQ q2({V("Y")}, {Atom::Make("E", {V("Y"), C("pd")})});
  UCQ ucq({q1, q2});
  auto answers = EvaluateUCQ(ucq, PathDb());
  EXPECT_EQ(answers.size(), 2u);  // pb and pc
}

TEST(HomomorphismTest, InjectiveSearch) {
  // Pattern: two E-atoms sharing the middle variable.
  std::vector<Atom> pattern = {Atom::Make("E", {V("H1"), V("H2")}),
                               Atom::Make("E", {V("H2"), V("H3")})};
  Instance db = PathDb();
  HomOptions injective;
  injective.injective = true;
  // Injective homs exist (the path), but the loop solution pe,pe,pe is
  // excluded.
  auto all = HomomorphismSearch(pattern, db, injective).FindAll();
  for (const auto& sub : all) {
    EXPECT_TRUE(sub.IsInjective());
  }
  EXPECT_EQ(all.size(), 2u);  // pa-pb-pc and pb-pc-pd
  auto unrestricted = HomomorphismSearch(pattern, db).FindAll();
  EXPECT_EQ(unrestricted.size(), 3u);
}

TEST(HomomorphismTest, InstanceHomomorphismWithFixedElements) {
  Instance from;
  from.Insert(Atom::Make("E", {C("u1"), C("u2")}));
  Instance to = PathDb();
  // Unrestricted: u1,u2 can map anywhere along an edge.
  EXPECT_TRUE(InstanceHomomorphism(from, to).has_value());
  // Fixing u1 fails: u1 is not in the target domain.
  EXPECT_FALSE(InstanceHomomorphism(from, to, {C("u1")}).has_value());
}

TEST(HomomorphismTest, EntryPointsAgreeOnRandomPatterns) {
  // One enumeration behind every entry point: ForEach visits what
  // FindAll returns, in the same order; a limited FindAll is its prefix;
  // Exists is its non-emptiness.
  for (int seed = 0; seed < 30; ++seed) {
    WorkloadRng rng(seed * 17 + 3);
    Instance db =
        RandomBinaryDatabase("phr", 8, 20 + rng.Below(20), seed, "ph");
    // Random CQ pattern: 2-4 atoms over 2-4 variables.
    const int num_vars = 2 + rng.Below(3);
    const int num_atoms = 2 + rng.Below(3);
    std::vector<Atom> pattern;
    for (int i = 0; i < num_atoms; ++i) {
      pattern.push_back(Atom::Make(
          "phr",
          {Term::Variable("phv" + std::to_string(rng.Below(num_vars))),
           Term::Variable("phv" + std::to_string(rng.Below(num_vars)))}));
    }
    const std::vector<Substitution> all =
        HomomorphismSearch(pattern, db).FindAll();

    std::vector<Substitution> visited;
    const size_t count =
        HomomorphismSearch(pattern, db).ForEach([&](const Substitution& sub) {
          visited.push_back(sub);
          return true;
        });
    EXPECT_EQ(count, all.size()) << "seed " << seed;
    ASSERT_EQ(visited.size(), all.size()) << "seed " << seed;
    for (size_t i = 0; i < all.size(); ++i) {
      EXPECT_TRUE(visited[i].SameMapping(all[i]))
          << "seed " << seed << " position " << i;
    }

    EXPECT_EQ(HomomorphismSearch(pattern, db).Exists(), !all.empty())
        << "seed " << seed;

    if (all.size() > 1) {
      const size_t limit = all.size() / 2;
      const std::vector<Substitution> limited =
          HomomorphismSearch(pattern, db).FindAll(limit);
      ASSERT_EQ(limited.size(), limit) << "seed " << seed;
      for (size_t i = 0; i < limit; ++i) {
        EXPECT_TRUE(limited[i].SameMapping(all[i]))
            << "seed " << seed << " position " << i;
      }
    }
  }
}

TEST(HomomorphismTest, InjectivelyOnly) {
  // q() :- E(A,B), E(B,C). On a pure path every hom is injective; with a
  // loop there is a non-injective one.
  CQ cq({}, {Atom::Make("E", {V("A"), V("B")}),
             Atom::Make("E", {V("B"), V("C")})});
  Instance pure_path;
  pure_path.Insert(Atom::Make("E", {C("w1"), C("w2")}));
  pure_path.Insert(Atom::Make("E", {C("w2"), C("w3")}));
  EXPECT_TRUE(HoldsInjectivelyOnly(cq, pure_path, {}));
  EXPECT_FALSE(HoldsInjectivelyOnly(cq, PathDb(), {}));  // loop at pe
}

TEST(ContainmentTest, PathContainments) {
  // Longer path queries are contained in shorter ones (Boolean).
  CQ p2({}, {Atom::Make("E", {V("X1"), V("X2")}),
             Atom::Make("E", {V("X2"), V("X3")})});
  CQ p1({}, {Atom::Make("E", {V("Y1"), V("Y2")})});
  EXPECT_TRUE(CqContained(p2, p1));
  EXPECT_FALSE(CqContained(p1, p2));
  EXPECT_FALSE(CqEquivalent(p1, p2));
}

TEST(ContainmentTest, EquivalentRenamedQueries) {
  CQ q1({V("X")}, {Atom::Make("E", {V("X"), V("Y")})});
  CQ q2({V("A")}, {Atom::Make("E", {V("A"), V("B")})});
  EXPECT_TRUE(CqEquivalent(q1, q2));
}

TEST(ContainmentTest, UcqMinimization) {
  CQ p1({}, {Atom::Make("E", {V("Y1"), V("Y2")})});
  CQ p2({}, {Atom::Make("E", {V("X1"), V("X2")}),
             Atom::Make("E", {V("X2"), V("X3")})});
  UCQ ucq({p1, p2});
  UCQ minimized = MinimizeUcq(ucq);
  // p2 ⊆ p1, so p2 is redundant.
  EXPECT_EQ(minimized.num_disjuncts(), 1u);
  EXPECT_TRUE(UcqEquivalent(ucq, minimized));
}

TEST(CoreTest, RedundantPathAtomFolds) {
  // q() :- E(X,Y), E(X,Y'): core is a single atom.
  CQ cq({}, {Atom::Make("E", {V("X"), V("Y")}),
             Atom::Make("E", {V("X"), V("Yp")})});
  CQ core = CqCore(cq);
  EXPECT_EQ(core.atoms().size(), 1u);
  EXPECT_TRUE(CqEquivalent(cq, core));
  EXPECT_TRUE(IsCore(core));
  EXPECT_FALSE(IsCore(cq));
}

TEST(CoreTest, GridIsItsOwnCore) {
  // The 2x2 grid query with distinct relations per direction is a core.
  CQ cq({}, {Atom::Make("H", {V("G11"), V("G12")}),
             Atom::Make("H", {V("G21"), V("G22")}),
             Atom::Make("Vv", {V("G11"), V("G21")}),
             Atom::Make("Vv", {V("G12"), V("G22")})});
  EXPECT_TRUE(IsCore(cq));
}

TEST(CoreTest, AnswerVariablesPreserved) {
  CQ cq({V("X")}, {Atom::Make("E", {V("X"), V("Y")}),
                   Atom::Make("E", {V("X"), V("Z")})});
  CQ core = CqCore(cq);
  ASSERT_EQ(core.answer_vars().size(), 1u);
  EXPECT_EQ(core.answer_vars()[0], V("X"));
  EXPECT_EQ(core.atoms().size(), 1u);
}

TEST(ContractionTest, CountsForTriangleQuery) {
  // Boolean query with 3 variables: admissible partitions = Bell(3) = 5.
  CQ cq({}, {Atom::Make("E", {V("T1"), V("T2")}),
             Atom::Make("E", {V("T2"), V("T3")})});
  size_t count = ForEachContraction(
      cq, [](const CQ&, const Substitution&) { return true; });
  EXPECT_EQ(count, 5u);
}

TEST(ContractionTest, AnswerVariablesNeverMerged) {
  CQ cq({V("X"), V("Y")}, {Atom::Make("E", {V("X"), V("Y")})});
  std::vector<CQ> contractions = AllContractions(cq);
  // Only the identity: X and Y are both answer variables.
  EXPECT_EQ(contractions.size(), 1u);
}

TEST(ContractionTest, AnswerVariableAbsorbsExistential) {
  CQ cq({V("X")}, {Atom::Make("E", {V("X"), V("Y")})});
  bool found_loop = false;
  ForEachContraction(cq, [&](const CQ& contraction, const Substitution&) {
    if (contraction.atoms().size() == 1 &&
        contraction.atoms()[0] == Atom::Make("E", {V("X"), V("X")})) {
      found_loop = true;
    }
    return true;
  });
  EXPECT_TRUE(found_loop);
}

TEST(ContractionTest, TreewidthFilter) {
  // 2x2 grid query (Boolean): treewidth 2; contractions include
  // treewidth-1 queries.
  CQ grid({}, {Atom::Make("P2", {V("W2"), V("W1")}),
               Atom::Make("P2", {V("W4"), V("W1")}),
               Atom::Make("P2", {V("W2"), V("W3")}),
               Atom::Make("P2", {V("W4"), V("W3")})});
  EXPECT_EQ(grid.TreewidthOfExistentialPart(), 2);
  std::vector<CQ> narrow = ContractionsWithTreewidthAtMost(grid, 1);
  EXPECT_FALSE(narrow.empty());
  for (const CQ& cq : narrow) {
    EXPECT_LE(cq.TreewidthOfExistentialPart(), 1);
  }
  // The identity contraction has treewidth 2 and is excluded.
  for (const CQ& cq : narrow) {
    EXPECT_LT(cq.AllVariables().size(), 4u);
  }
}

TEST(TreewidthOfQueryTest, AnswerVariablesExcluded) {
  // A triangle of answer variables has no existential part: treewidth 1
  // by the paper's convention.
  CQ cq({V("X"), V("Y"), V("Z")},
        {Atom::Make("E", {V("X"), V("Y")}), Atom::Make("E", {V("Y"), V("Z")}),
         Atom::Make("E", {V("Z"), V("X")})});
  EXPECT_EQ(cq.TreewidthOfExistentialPart(), 1);
  // All existential: treewidth 2.
  CQ boolean_triangle({}, {Atom::Make("E", {V("X"), V("Y")}),
                           Atom::Make("E", {V("Y"), V("Z")}),
                           Atom::Make("E", {V("Z"), V("X")})});
  EXPECT_EQ(boolean_triangle.TreewidthOfExistentialPart(), 2);
}

class TreeDpAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TreeDpAgreementTest, MatchesBacktrackingOnPaths) {
  auto [path_db_length, query_length] = GetParam();
  Instance db;
  for (int i = 0; i < path_db_length; ++i) {
    db.Insert(Atom::Make("E", {Term::Constant("n" + std::to_string(i)),
                               Term::Constant("n" + std::to_string(i + 1))}));
  }
  std::vector<Atom> atoms;
  for (int i = 0; i < query_length; ++i) {
    atoms.push_back(
        Atom::Make("E", {Term::Variable("q" + std::to_string(i)),
                         Term::Variable("q" + std::to_string(i + 1))}));
  }
  CQ cq({}, atoms);
  EXPECT_EQ(HoldsBooleanCQ(cq, db), HoldsBooleanCqTreeDp(cq, db));
  EXPECT_EQ(HoldsBooleanCqTreeDp(cq, db), query_length <= path_db_length);
}

INSTANTIATE_TEST_SUITE_P(PathSweep, TreeDpAgreementTest,
                         ::testing::Combine(::testing::Values(1, 3, 5),
                                            ::testing::Values(1, 2, 4, 6)));

TEST(TreeDpTest, CandidateAnswerDecision) {
  CQ cq({V("X"), V("Z")},
        {Atom::Make("E", {V("X"), V("Y")}), Atom::Make("E", {V("Y"), V("Z")})});
  EXPECT_TRUE(HoldsCqTreeDp(cq, PathDb(), {C("pa"), C("pc")}));
  EXPECT_FALSE(HoldsCqTreeDp(cq, PathDb(), {C("pa"), C("pd")}));
}

TEST(TreeDpTest, GridQueryOnGridData) {
  // 3x3 grid data, 2x2 grid Boolean query: satisfiable.
  Instance db;
  auto cell = [](int i, int j) {
    return Term::Constant("g" + std::to_string(i) + "_" + std::to_string(j));
  };
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i + 1 < 3) db.Insert(Atom::Make("GV", {cell(i, j), cell(i + 1, j)}));
      if (j + 1 < 3) db.Insert(Atom::Make("GH", {cell(i, j), cell(i, j + 1)}));
    }
  }
  auto qvar = [](int i, int j) {
    return Term::Variable("x" + std::to_string(i) + "_" + std::to_string(j));
  };
  std::vector<Atom> atoms;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      if (i + 1 < 2) atoms.push_back(Atom::Make("GV", {qvar(i, j), qvar(i + 1, j)}));
      if (j + 1 < 2) atoms.push_back(Atom::Make("GH", {qvar(i, j), qvar(i, j + 1)}));
    }
  }
  CQ cq({}, atoms);
  EXPECT_TRUE(HoldsBooleanCqTreeDp(cq, db));
  EXPECT_TRUE(HoldsBooleanCQ(cq, db));
  // A 4x2 grid query does not fit in a 3x3 grid with directed relations.
  std::vector<Atom> big;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 2; ++j) {
      if (i + 1 < 4) big.push_back(Atom::Make("GV", {qvar(i, j), qvar(i + 1, j)}));
      if (j + 1 < 2) big.push_back(Atom::Make("GH", {qvar(i, j), qvar(i, j + 1)}));
    }
  }
  CQ big_cq({}, big);
  EXPECT_FALSE(HoldsBooleanCqTreeDp(big_cq, db));
  EXPECT_FALSE(HoldsBooleanCQ(big_cq, db));
}

}  // namespace
}  // namespace gqe
