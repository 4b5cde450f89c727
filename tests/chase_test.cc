#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "chase/chase.h"
#include "query/evaluation.h"
#include "query/homomorphism.h"

namespace gqe {
namespace {

Term C(const char* name) { return Term::Constant(name); }
Term V(const char* name) { return Term::Variable(name); }

TEST(ChaseTest, FullTgdsReachFixpoint) {
  // Transitive closure: E(X,Y), E(Y,Z) -> E(X,Z) on a path of 4.
  TgdSet sigma = {Tgd({Atom::Make("CE", {V("X"), V("Y")}),
                       Atom::Make("CE", {V("Y"), V("Z")})},
                      {Atom::Make("CE", {V("X"), V("Z")})})};
  Instance db;
  db.Insert(Atom::Make("CE", {C("c1"), C("c2")}));
  db.Insert(Atom::Make("CE", {C("c2"), C("c3")}));
  db.Insert(Atom::Make("CE", {C("c3"), C("c4")}));
  ChaseResult result = Chase(db, sigma);
  EXPECT_TRUE(result.complete);
  // Transitive closure of a 4-path: 3+2+1 = 6 edges.
  EXPECT_EQ(result.instance.size(), 6u);
  EXPECT_TRUE(result.instance.Contains(Atom::Make("CE", {C("c1"), C("c4")})));
  EXPECT_TRUE(Satisfies(result.instance, sigma));
}

TEST(ChaseTest, ExistentialCreatesNulls) {
  // Person(X) -> exists Y. HasParent(X,Y), Person(Y): infinite chase;
  // bound the level.
  TgdSet sigma = {Tgd({Atom::Make("CPerson", {V("X")})},
                      {Atom::Make("CHasParent", {V("X"), V("Y")}),
                       Atom::Make("CPerson", {V("Y")})})};
  Instance db;
  db.Insert(Atom::Make("CPerson", {C("alice")}));
  ChaseOptions options;
  options.max_level = 3;
  ChaseResult result = Chase(db, sigma, options);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.max_level_built, 3);
  // Levels: 1 person at 0; each level adds one person + one edge.
  EXPECT_EQ(result.instance.size(), 1u + 2u * 3u);
  // The new parent is a labelled null.
  bool found_null = false;
  for (const Atom& atom : result.instance.atoms()) {
    for (Term t : atom.args()) {
      if (t.IsNull()) found_null = true;
    }
  }
  EXPECT_TRUE(found_null);
}

TEST(ChaseTest, LevelsFollowLemmaA1) {
  // Linear rules forming a chain: A(X) -> B(X) -> C(X).
  TgdSet sigma = {
      Tgd({Atom::Make("CA", {V("X")})}, {Atom::Make("CB", {V("X")})}),
      Tgd({Atom::Make("CB", {V("X")})}, {Atom::Make("CC", {V("X")})})};
  Instance db;
  db.Insert(Atom::Make("CA", {C("lv")}));
  ChaseResult result = Chase(db, sigma);
  EXPECT_TRUE(result.complete);
  ASSERT_EQ(result.levels.size(), result.instance.size());
  auto level_of = [&](const Atom& fact) {
    const int64_t index = result.instance.Find(fact);
    EXPECT_GE(index, 0) << fact;
    return index < 0 ? -1 : result.levels[index];
  };
  EXPECT_EQ(level_of(Atom::Make("CA", {C("lv")})), 0);
  EXPECT_EQ(level_of(Atom::Make("CB", {C("lv")})), 1);
  EXPECT_EQ(level_of(Atom::Make("CC", {C("lv")})), 2);
  Instance level1 = result.UpToLevel(1);
  EXPECT_EQ(level1.size(), 2u);
  EXPECT_FALSE(level1.Contains(Atom::Make("CC", {C("lv")})));
}

TEST(ChaseTest, ObliviousFiresSatisfiedTriggers) {
  // R(X,Y) -> exists Z. R(X,Z): oblivious chase fires even though the
  // head is already satisfied; restricted chase does not.
  TgdSet sigma = {Tgd({Atom::Make("CR", {V("X"), V("Y")})},
                      {Atom::Make("CR", {V("X"), V("Z")})})};
  Instance db;
  db.Insert(Atom::Make("CR", {C("r1"), C("r2")}));
  ChaseOptions oblivious;
  oblivious.max_level = 2;
  ChaseResult ob = Chase(db, sigma, oblivious);
  EXPECT_GT(ob.instance.size(), 1u);

  ChaseOptions restricted;
  restricted.restricted = true;
  ChaseResult re = Chase(db, sigma, restricted);
  EXPECT_TRUE(re.complete);
  EXPECT_EQ(re.instance.size(), 1u);
}

TEST(ChaseTest, UniversalityHomomorphismIntoAnyModel) {
  // Proposition 2.2: chase(D, Σ) maps homomorphically into every model of
  // D and Σ fixing dom(D).
  TgdSet sigma = {Tgd({Atom::Make("CPj", {V("X")})},
                      {Atom::Make("CWorksAt", {V("X"), V("Y")}),
                       Atom::Make("CDept", {V("Y")})})};
  Instance db;
  db.Insert(Atom::Make("CPj", {C("uma")}));
  ChaseResult chase = Chase(db, sigma);
  EXPECT_TRUE(chase.complete);

  // A hand-built model: uma works at d0.
  Instance model;
  model.Insert(Atom::Make("CPj", {C("uma")}));
  model.Insert(Atom::Make("CWorksAt", {C("uma"), C("d0")}));
  model.Insert(Atom::Make("CDept", {C("d0")}));
  ASSERT_TRUE(Satisfies(model, sigma));
  auto hom = InstanceHomomorphism(chase.instance, model, {C("uma")});
  EXPECT_TRUE(hom.has_value());
}

TEST(ChaseTest, EmptyBodyTgdFiresOnce) {
  TgdSet sigma = {Tgd({}, {Atom::Make("CInit", {V("Z")})})};
  Instance db;
  db.Insert(Atom::Make("CSeed", {C("s")}));
  ChaseResult result = Chase(db, sigma);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.instance.FactsWithPredicate(predicates::Lookup("CInit"))
                .size(),
            1u);
}

TEST(ChaseTest, FactBudgetStopsCleanly) {
  TgdSet sigma = {Tgd({Atom::Make("CPerson", {V("X")})},
                      {Atom::Make("CHasParent", {V("X"), V("Y")}),
                       Atom::Make("CPerson", {V("Y")})})};
  Instance db;
  db.Insert(Atom::Make("CPerson", {C("fb")}));
  ChaseOptions options;
  options.budget.max_facts = 20;
  ChaseResult result = Chase(db, sigma, options);
  EXPECT_FALSE(result.complete);
  EXPECT_LE(result.instance.size(), 25u);
}

TEST(ChaseTest, FactBudgetNeverOvershoots) {
  // Multi-atom heads used to overshoot: the budget was only checked after
  // a trigger's whole head had been inserted. It now gates every single
  // insertion, so the instance never exceeds max_facts — even budgets that
  // land mid-head.
  TgdSet sigma = {Tgd({Atom::Make("CBud", {V("X")})},
                      {Atom::Make("CBudNext", {V("X"), V("Y")}),
                       Atom::Make("CBud", {V("Y")}),
                       Atom::Make("CBudMark", {V("X")})})};
  Instance db;
  db.Insert(Atom::Make("CBud", {C("fb0")}));
  db.Insert(Atom::Make("CBud", {C("fb1")}));
  for (size_t budget : {3u, 4u, 5u, 6u, 7u}) {
    ChaseOptions options;
    options.budget.max_facts = budget;
    ChaseResult result = Chase(db, sigma, options);
    EXPECT_LE(result.instance.size(), budget) << "budget " << budget;
    EXPECT_FALSE(result.complete) << "budget " << budget;
    EXPECT_TRUE(db.SubsetOf(result.instance)) << "budget " << budget;
  }
}

TEST(SatisfiesTest, DetectsViolation) {
  TgdSet sigma = {Tgd({Atom::Make("CE", {V("X"), V("Y")})},
                      {Atom::Make("CE", {V("Y"), V("X")})})};
  Instance db;
  db.Insert(Atom::Make("CE", {C("s1"), C("s2")}));
  EXPECT_FALSE(Satisfies(db, sigma));
  db.Insert(Atom::Make("CE", {C("s2"), C("s1")}));
  EXPECT_TRUE(Satisfies(db, sigma));
}

TEST(SatisfiesTest, ExistentialHeadSatisfiedByAnyWitness) {
  TgdSet sigma = {Tgd({Atom::Make("CPj", {V("X")})},
                      {Atom::Make("CWorksAt", {V("X"), V("Y")})})};
  Instance db;
  db.Insert(Atom::Make("CPj", {C("w")}));
  EXPECT_FALSE(Satisfies(db, sigma));
  db.Insert(Atom::Make("CWorksAt", {C("w"), C("anywhere")}));
  EXPECT_TRUE(Satisfies(db, sigma));
}

TEST(ChaseTest, ChaseAnswersCertainly) {
  // Proposition 3.1 shape: Q(D) = q(chase(D,Σ)) for a terminating chase.
  TgdSet sigma = {
      Tgd({Atom::Make("CGrad", {V("X")})}, {Atom::Make("CStudent", {V("X")})}),
      Tgd({Atom::Make("CStudent", {V("X")})},
          {Atom::Make("CEnrolled", {V("X"), V("Y")})})};
  Instance db;
  db.Insert(Atom::Make("CGrad", {C("gina")}));
  ChaseResult chase = Chase(db, sigma);
  ASSERT_TRUE(chase.complete);
  CQ q({V("X")}, {Atom::Make("CEnrolled", {V("X"), V("Y")})});
  auto answers = EvaluateCQ(q, chase.instance);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0][0], C("gina"));
}

/// Transitive closure plus one existential rule whose nulls feed a
/// third, multi-level rule: recursion, labelled nulls and carried
/// triggers are all in play. The nulls are named by their trigger's
/// frontier through CNl(X, Y, W).
TgdSet NaiveSigma() {
  return {Tgd({Atom::Make("CNe", {V("X"), V("Y")}),
               Atom::Make("CNe", {V("Y"), V("Z")})},
              {Atom::Make("CNe", {V("X"), V("Z")})}),
          Tgd({Atom::Make("CNe", {V("X"), V("Y")})},
              {Atom::Make("CNl", {V("X"), V("Y"), V("W")})}),
          Tgd({Atom::Make("CNl", {V("X"), V("Y"), V("W")}),
               Atom::Make("CNe", {V("Y"), V("Z")})},
              {Atom::Make("CNr", {V("W"), V("Z")})})};
}

Instance NaiveDb() {
  Instance db;
  for (int i = 0; i < 5; ++i) {
    db.Insert(Atom::Make("CNe", {Term::Constant("cn" + std::to_string(i)),
                                 Term::Constant("cn" + std::to_string(i + 1))}));
  }
  return db;
}

struct RecordingSink : ChaseCheckpointSink {
  std::vector<ChaseCheckpointState> states;
  void Write(const ChaseCheckpointState& state, bool) override {
    states.push_back(state);
  }
};

TEST(ChaseTest, NaiveMatchesSemiNaive) {
  const TgdSet sigma = NaiveSigma();
  const Instance db = NaiveDb();
  // The budget only bounds a broken engine: the chase has 50 facts.
  ChaseOptions semi_options;
  semi_options.budget.max_facts = 1000;
  ChaseOptions naive_options = semi_options;
  naive_options.semi_naive = false;
  const ChaseResult semi = Chase(db, sigma, semi_options);
  const ChaseResult naive = Chase(db, sigma, naive_options);
  ASSERT_TRUE(semi.complete);
  EXPECT_EQ(naive.complete, semi.complete);
  ASSERT_EQ(naive.levels.size(), naive.instance.size());
  ASSERT_EQ(naive.instance.size(), semi.instance.size());

  // The two engines may draw nulls in different orders; CNl(X, Y, W)
  // names each null by its trigger, which gives the renaming.
  const PredicateId nl = predicates::Lookup("CNl");
  std::map<std::pair<uint32_t, uint32_t>, Term> semi_null;
  for (uint32_t i : semi.instance.FactsWithPredicate(nl)) {
    const auto& args = semi.instance.atom(i).args();
    semi_null[{args[0].bits(), args[1].bits()}] = args[2];
  }
  std::map<uint32_t, Term> rename;
  for (uint32_t i : naive.instance.FactsWithPredicate(nl)) {
    const auto& args = naive.instance.atom(i).args();
    auto it = semi_null.find({args[0].bits(), args[1].bits()});
    ASSERT_NE(it, semi_null.end());
    rename[args[2].bits()] = it->second;
  }
  ASSERT_EQ(rename.size(), semi_null.size());
  for (size_t i = 0; i < naive.instance.size(); ++i) {
    Atom fact = naive.instance.atom(i);
    for (Term& t : fact.mutable_args()) {
      if (t.IsNull()) t = rename.at(t.bits());
    }
    const int64_t index = semi.instance.Find(fact);
    ASSERT_GE(index, 0) << fact;
    EXPECT_EQ(naive.levels[i], semi.levels[index]) << fact;
  }
}

TEST(ChaseTest, NaiveResumeFromMidRunMatchesUninterrupted) {
  const TgdSet sigma = NaiveSigma();
  const Instance db = NaiveDb();
  const uint32_t null_base = Term::NextNullId();
  ChaseOptions options;
  options.semi_naive = false;
  options.budget.max_facts = 1000;
  RecordingSink sink;
  ChaseOptions tracked = options;
  tracked.checkpoint_sink = &sink;

  Term::SetNextNullId(null_base);
  const ChaseResult reference = Chase(db, sigma, options);
  Term::SetNextNullId(null_base);
  const ChaseResult traced = Chase(db, sigma, tracked);
  ASSERT_TRUE(reference.complete);
  ASSERT_GE(sink.states.size(), 3u);
  ASSERT_TRUE(traced.instance.SetEquals(reference.instance));

  const ChaseCheckpointState& mid = sink.states[sink.states.size() / 2];
  ASSERT_FALSE(mid.complete);
  ASSERT_GT(mid.rounds_completed, 0u);
  Term::SetNextNullId(null_base + 1000);
  const ChaseResult resumed = ResumeChaseFromState(mid, sigma, options);
  ASSERT_EQ(resumed.instance.size(), reference.instance.size());
  for (size_t i = 0; i < reference.instance.size(); ++i) {
    ASSERT_EQ(resumed.instance.atom(i), reference.instance.atom(i))
        << "fact " << i;
  }
  EXPECT_EQ(resumed.levels.size(), resumed.instance.size());
  EXPECT_EQ(resumed.levels, reference.levels);
  EXPECT_EQ(resumed.complete, reference.complete);
  EXPECT_EQ(resumed.rounds_completed, reference.rounds_completed);
  Term::SetNextNullId(null_base);
}

}  // namespace
}  // namespace gqe
