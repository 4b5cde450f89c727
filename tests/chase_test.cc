#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "chase/chase.h"
#include "query/evaluation.h"
#include "query/homomorphism.h"
#include "tgd/tgd.h"
#include "verify/verifier.h"
#include "verify/witness.h"
#include "workload/generators.h"

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

TEST(ChaseTest, TransitiveClosureFiresEachTriggerOnce) {
  // A trigger of e(X, Y), e(Y, Z) -> e(X, Z) over a path of n edges is a
  // node triple x < y < z, so exactly C(n+1, 3) fire. Within a round,
  // both body atoms can land on delta facts, so the same trigger is
  // discovered twice there and must fire once.
  constexpr int kEdges = 100;
  TgdSet sigma = {Tgd({Atom::Make("CTc", {V("X"), V("Y")}),
                       Atom::Make("CTc", {V("Y"), V("Z")})},
                      {Atom::Make("CTc", {V("X"), V("Z")})})};
  Instance db;
  for (int i = 0; i < kEdges; ++i) {
    const Term from = Term::Constant("tc" + std::to_string(i));
    const Term to = Term::Constant("tc" + std::to_string(i + 1));
    db.Insert(Atom::Make("CTc", {from, to}));
  }
  ChaseResult result = Chase(db, sigma);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.triggers_fired, 166650u);  // C(101, 3)
  EXPECT_EQ(result.instance.size(), 5050u);   // C(101, 2)
}

// ---------------------------------------------------------------------
// Random workloads: the inclusion-dependency generator alternating with
// a join generator, so linear rules and joins are both exercised.
// ---------------------------------------------------------------------

TgdSet RandomJoinTgds(const std::string& prefix, int num_preds, int num_tgds,
                      uint64_t seed) {
  WorkloadRng rng(seed);
  Term x = V("X");
  Term y = V("Y");
  Term z = V("Z");
  Term w = V("W");
  auto pred = [&prefix](uint32_t i) { return prefix + std::to_string(i); };
  TgdSet tgds;
  for (int i = 0; i < num_tgds; ++i) {
    std::vector<Atom> body;
    body.push_back(Atom::Make(pred(rng.Below(num_preds)), {x, y}));
    if (rng.Chance(50)) {
      // Join a second body atom through Y.
      body.push_back(Atom::Make(pred(rng.Below(num_preds)), {y, z}));
    }
    std::vector<Atom> head;
    Term tail = body.size() == 2 ? z : y;
    if (rng.Chance(30)) {
      head.push_back(Atom::Make(pred(rng.Below(num_preds)), {x, w}));  // ∃W
    } else if (rng.Chance(50)) {
      head.push_back(Atom::Make(pred(rng.Below(num_preds)), {tail, x}));
    } else {
      head.push_back(Atom::Make(pred(rng.Below(num_preds)), {x, tail}));
    }
    if (rng.Chance(30)) {
      head.push_back(Atom::Make(pred(rng.Below(num_preds)), {x, x}));
    }
    tgds.push_back(Tgd(std::move(body), std::move(head)));
  }
  return tgds;
}

struct RandomWorkload {
  TgdSet sigma;
  Instance db;
};

RandomWorkload MakeWorkload(int seed) {
  const std::string prefix = "pdt" + std::to_string(seed % 7) + "p";
  WorkloadRng rng(seed * 31 + 5);
  RandomWorkload w;
  // Prefer weakly-acyclic draws (bounded retries) so most runs reach a
  // true fixpoint, but keep non-terminating draws too: the
  // budget-truncated chase must also yield a sound derivation.
  for (int attempt = 0; attempt < 8; ++attempt) {
    uint64_t s = static_cast<uint64_t>(seed) * 131 + attempt;
    w.sigma = (seed % 2 == 0)
                  ? RandomInclusionDependencies(prefix, 4, 5,
                                                /*existential=*/35, s)
                  : RandomJoinTgds(prefix, 4, 4, s);
    if (IsObliviousChaseTerminating(w.sigma)) break;
  }
  for (int p = 0; p < 2; ++p) {
    w.db.InsertAll(RandomBinaryDatabase(prefix + std::to_string(p), 6,
                                        5 + rng.Below(6), seed * 13 + p,
                                        "pd" + std::to_string(seed % 5)));
  }
  return w;
}

// Witness oracle: the derivation log the chase emits is self-consistent
// — the independent checker replays it from the database alone back to
// the chase instance, fact for fact and in insertion order.
class ChaseWitnessOracle : public ::testing::TestWithParam<int> {};

TEST_P(ChaseWitnessOracle, VerifierReplaysDerivation) {
  const int seed = GetParam();
  RandomWorkload w = MakeWorkload(seed);
  ChaseOptions options;
  options.budget.max_facts = 1200;  // caps the (rare) non-terminating draws
  options.collect_witness = true;
  ChaseResult result = Chase(w.db, w.sigma, options);
  ASSERT_TRUE(result.derivation.collected) << "seed " << seed;
  EXPECT_EQ(result.derivation.instance_crc,
            result.derivation.replay_exact ? InstanceTextCrc(result.instance)
                                           : 0u)
      << "seed " << seed;
  if (!result.derivation.replay_exact) return;
  Instance replayed;
  VerifyResult check =
      VerifyDerivation(w.db, w.sigma, result.derivation, &replayed);
  ASSERT_TRUE(check.ok()) << "seed " << seed << ": "
                          << VerifyCodeName(check.code) << " — "
                          << check.reason;
  EXPECT_EQ(replayed.atoms(), result.instance.atoms()) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaseWitnessOracle, ::testing::Range(0, 20));

struct RecordingSink : ChaseCheckpointSink {
  std::vector<ChaseCheckpointState> states;
  void Write(const ChaseCheckpointState& state) override {
    states.push_back(state);
  }
};

// One round is one level (Lemma A.1): levels never decrease in insertion
// order, and every fact round r commits has level r + 1, so the facts a
// boundary adds over the previous one have level `rounds_completed`.
TEST(ChaseTest, EachRoundCommitsOneLevel) {
  for (int seed = 0; seed < 20; ++seed) {
    RandomWorkload w = MakeWorkload(seed);
    RecordingSink sink;
    ChaseOptions options;
    options.budget.max_facts = 1200;
    options.checkpoint_sink = &sink;
    ChaseResult result = Chase(w.db, w.sigma, options);
    EXPECT_TRUE(std::is_sorted(result.levels.begin(), result.levels.end()))
        << "seed " << seed;
    size_t committed = 0;
    for (const ChaseCheckpointState& state : sink.states) {
      for (size_t i = committed; i < state.levels.size(); ++i) {
        EXPECT_EQ(state.levels[i], static_cast<int32_t>(state.rounds_completed))
            << "seed " << seed << " fact " << i;
      }
      committed = state.levels.size();
    }
  }
}

// Rounds are transactional: a fault injector trips kCancelled at the Nth
// governor checkpoint — in discovery, at a trigger boundary or on a fact
// charge — and the committed result is exactly the last round boundary
// the sink received, not "some prefix".
TEST(ChaseCancellation, InjectedCancelCommitsLastBoundary) {
  // Diverging workload (never reaches a fixpoint) whose rounds have many
  // triggers and joins.
  TgdSet sigma;
  Term x = V("X");
  Term y = V("Y");
  Term z = V("Z");
  Term w = V("W");
  sigma.push_back(Tgd({Atom::Make("pcc", {x, y}), Atom::Make("pcc", {y, z})},
                      {Atom::Make("pcc", {x, z})}));
  sigma.push_back(Tgd({Atom::Make("pcc", {x, y})},
                      {Atom::Make("pcc", {y, w})}));
  Instance db;
  for (int i = 0; i < 4; ++i) {
    db.Insert(Atom::Make("pcc",
                         {Term::Constant("pc" + std::to_string(i)),
                          Term::Constant("pc" + std::to_string(i + 1))}));
  }

  for (uint64_t at = 1; at < 1200; at += 7) {
    TestFaultInjector injector(Status::kCancelled, at);
    ExecutionBudget budget;
    budget.max_facts = 0;  // the injector is the only guard rail
    Governor governor(budget, &injector);
    RecordingSink sink;
    ChaseOptions options;
    options.governor = &governor;
    options.checkpoint_sink = &sink;
    ChaseResult result = Chase(db, sigma, options);
    EXPECT_EQ(result.outcome.status, Status::kCancelled) << "at " << at;
    EXPECT_FALSE(result.complete) << "at " << at;
    ASSERT_FALSE(sink.states.empty()) << "at " << at;
    const ChaseCheckpointState& last = sink.states.back();
    EXPECT_FALSE(last.complete) << "at " << at;
    EXPECT_EQ(result.instance.atoms(), last.atoms) << "at " << at;
    EXPECT_EQ(result.levels, last.levels) << "at " << at;
    EXPECT_EQ(result.triggers_fired, last.triggers_fired) << "at " << at;
    EXPECT_EQ(result.rounds_completed, last.rounds_completed) << "at " << at;
  }
}

}  // namespace
}  // namespace gqe
