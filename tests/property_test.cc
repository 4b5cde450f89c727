// Property-based tests: randomized cross-checks of independent engines
// and classical invariants, swept over seeds with TEST_P.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chase/chase.h"
#include "fc/witness.h"
#include "graph/treewidth.h"
#include "guarded/omq_eval.h"
#include "guarded/type_closure.h"
#include "linear/linear_chase.h"
#include "query/acyclic.h"
#include "query/containment.h"
#include "query/contraction.h"
#include "query/core.h"
#include "query/evaluation.h"
#include "query/homomorphism.h"
#include "query/substitution.h"
#include "query/tw_evaluation.h"
#include "verify/verifier.h"
#include "verify/witness.h"
#include "workload/generators.h"

namespace gqe {
namespace {

// ---------------------------------------------------------------------
// Random CQ evaluation: backtracking join vs Prop 2.1 tree DP.
// ---------------------------------------------------------------------

class RandomCqAgreement : public ::testing::TestWithParam<int> {};

TEST_P(RandomCqAgreement, TreeDpMatchesBacktracking) {
  const int seed = GetParam();
  WorkloadRng rng(seed);
  Instance db = RandomBinaryDatabase("pr1e", 10, 25, seed, "p1");
  // Random Boolean CQ: 3-5 atoms over 3-5 variables.
  const int num_vars = 3 + rng.Below(3);
  const int num_atoms = 3 + rng.Below(3);
  std::vector<Atom> atoms;
  for (int i = 0; i < num_atoms; ++i) {
    atoms.push_back(Atom::Make(
        "pr1e",
        {Term::Variable("pv" + std::to_string(rng.Below(num_vars))),
         Term::Variable("pv" + std::to_string(rng.Below(num_vars)))}));
  }
  CQ cq({}, atoms);
  EXPECT_EQ(HoldsBooleanCQ(cq, db), HoldsBooleanCqTreeDp(cq, db))
      << cq.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCqAgreement, ::testing::Range(0, 25));

// ---------------------------------------------------------------------
// Three-engine oracle agreement at the *certificate* level (ISSUE 5):
// the generic backtracking join, the Prop 2.1 tree-decomposition DP,
// and Yannakakis (on acyclic queries) must decide c̄ ∈ q(D) identically,
// AND every positive verdict must come with a certificate the
// independent checker accepts — the DP's stitched homomorphism, the
// Yannakakis join tree plus traceback homomorphism. A plausible "yes"
// whose witness does not re-check counts as a disagreement. Failures
// print a minimized reproducer — schema, database and query in parser
// syntax — replayable directly through ParseProgram.
// ---------------------------------------------------------------------

struct OracleVerdicts {
  bool backtracking = false;
  bool tree_dp = false;
  std::optional<bool> yannakakis;  // nullopt: query not acyclic
  /// Non-empty when a positive verdict's certificate failed the
  /// independent checker (names the engine and the structured reason).
  std::string certificate_error;

  bool Agree() const {
    if (!certificate_error.empty()) return false;
    if (backtracking != tree_dp) return false;
    return !yannakakis.has_value() || *yannakakis == backtracking;
  }
  std::string ToString() const {
    std::string out = "backtracking=";
    out += backtracking ? "true" : "false";
    out += " tree_dp=";
    out += tree_dp ? "true" : "false";
    out += " yannakakis=";
    out += !yannakakis.has_value() ? "n/a (cyclic)"
                                   : (*yannakakis ? "true" : "false");
    if (!certificate_error.empty()) {
      out += " certificate: " + certificate_error;
    }
    return out;
  }
};

OracleVerdicts EvaluateOracles(const CQ& cq, const Instance& db,
                               const std::vector<Term>& answer) {
  OracleVerdicts v;
  v.backtracking = HoldsCQ(cq, db, answer);
  HomWitness dp_hom;
  v.tree_dp = HoldsCqTreeDpWithWitness(cq, db, answer, &dp_hom);
  if (v.tree_dp) {
    VerifyResult check = VerifyHomomorphism(UCQ({cq}), db, dp_hom);
    if (!check.ok()) {
      v.certificate_error = "tree-dp [" +
                            std::string(VerifyCodeName(check.code)) + "] " +
                            check.reason;
    }
  }
  JoinTreeWitness tree;
  HomWitness yan_hom;
  v.yannakakis = HoldsAcyclicCq(cq, db, answer, &tree, &yan_hom);
  if (v.yannakakis.has_value() && v.certificate_error.empty()) {
    // The engine's tree is for the candidate-grounded query (see
    // acyclic.h) — check it against exactly that.
    Substitution candidate;
    for (size_t i = 0; i < cq.answer_vars().size(); ++i) {
      candidate.Set(cq.answer_vars()[i], answer[i]);
    }
    std::vector<Atom> grounded_atoms;
    for (const Atom& atom : cq.atoms()) {
      grounded_atoms.push_back(candidate.Apply(atom));
    }
    CQ grounded({}, grounded_atoms);
    VerifyResult tree_check = VerifyJoinTree(grounded, tree);
    if (!tree_check.ok()) {
      v.certificate_error = "join-tree [" +
                            std::string(VerifyCodeName(tree_check.code)) +
                            "] " + tree_check.reason;
    } else if (*v.yannakakis) {
      VerifyResult hom_check = VerifyHomomorphism(UCQ({cq}), db, yan_hom);
      if (!hom_check.ok()) {
        v.certificate_error = "yannakakis [" +
                              std::string(VerifyCodeName(hom_check.code)) +
                              "] " + hom_check.reason;
      }
    }
  }
  return v;
}

/// Renders a disagreement as a runnable parser-syntax program. Generated
/// variables are uppercase and constants lowercase, so the text parses
/// back to the same instance/query.
std::string FormatReproducer(const CQ& cq, const Instance& db,
                             const std::vector<Term>& answer,
                             const OracleVerdicts& verdicts) {
  std::string out = "% oracle disagreement: " + verdicts.ToString() + "\n";
  if (!answer.empty()) {
    out += "% candidate answer: (";
    for (size_t i = 0; i < answer.size(); ++i) {
      if (i > 0) out += ", ";
      out += answer[i].ToString();
    }
    out += ")\n";
  }
  for (const Atom& fact : db.atoms()) out += fact.ToString() + ".\n";
  out += "q(";
  for (size_t i = 0; i < cq.answer_vars().size(); ++i) {
    if (i > 0) out += ", ";
    out += cq.answer_vars()[i].ToString();
  }
  out += ") :- " + AtomsToString(cq.atoms()) + ".\n";
  return out;
}

/// Greedy delta-minimization: drop database facts, then query atoms, as
/// long as the engines still disagree. Quadratic, but reproducers start
/// tiny.
std::string MinimizeAndFormat(CQ cq, Instance db, std::vector<Term> answer) {
  auto disagrees = [&answer](const CQ& q, const Instance& d) {
    return !EvaluateOracles(q, d, answer).Agree();
  };
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (size_t drop = 0; drop < db.size(); ++drop) {
      Instance smaller;
      for (size_t i = 0; i < db.size(); ++i) {
        if (i != drop) smaller.Insert(db.atom(i));
      }
      if (disagrees(cq, smaller)) {
        db = std::move(smaller);
        shrunk = true;
        break;
      }
    }
    if (shrunk) continue;
    for (size_t drop = 0; cq.atoms().size() > 1 && drop < cq.atoms().size();
         ++drop) {
      std::vector<Atom> fewer;
      for (size_t i = 0; i < cq.atoms().size(); ++i) {
        if (i != drop) fewer.push_back(cq.atoms()[i]);
      }
      CQ candidate(cq.answer_vars(), std::move(fewer));
      if (!candidate.Validate()) continue;
      if (disagrees(candidate, db)) {
        cq = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return FormatReproducer(cq, db, answer, EvaluateOracles(cq, db, answer));
}

class OracleAgreement : public ::testing::TestWithParam<int> {};

TEST_P(OracleAgreement, BacktrackingTreeDpYannakakisAgree) {
  const int seed = GetParam();
  WorkloadRng rng(seed * 9176 + 17);
  Instance db = RandomBinaryDatabase("oag0", 8, 18, seed * 3 + 1, "oa");
  db.InsertAll(RandomBinaryDatabase("oag1", 8, 14, seed * 3 + 2, "oa"));
  // Random query over both predicates: 2-4 atoms, 2-4 variables, answer
  // variable OV0. Roughly half the draws are acyclic, exercising the
  // Yannakakis oracle too.
  const int num_vars = 2 + rng.Below(3);
  const int num_atoms = 2 + rng.Below(3);
  std::vector<Atom> atoms;
  auto var = [&](uint32_t i) {
    return Term::Variable("OV" + std::to_string(i));
  };
  atoms.push_back(Atom::Make("oag0", {var(0), var(rng.Below(num_vars))}));
  for (int i = 1; i < num_atoms; ++i) {
    atoms.push_back(
        Atom::Make(rng.Chance(50) ? "oag0" : "oag1",
                   {var(rng.Below(num_vars)), var(rng.Below(num_vars))}));
  }
  // Boolean agreement.
  CQ boolean_cq({}, atoms);
  OracleVerdicts verdict = EvaluateOracles(boolean_cq, db, {});
  EXPECT_TRUE(verdict.Agree())
      << MinimizeAndFormat(boolean_cq, db, {});
  // Per-candidate agreement for the unary query q(OV0).
  CQ unary_cq({var(0)}, atoms);
  size_t checked = 0;
  for (Term candidate : db.ActiveDomain()) {
    if (++checked > 6) break;  // keep the sweep cheap
    OracleVerdicts v = EvaluateOracles(unary_cq, db, {candidate});
    EXPECT_TRUE(v.Agree()) << MinimizeAndFormat(unary_cq, db, {candidate});
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleAgreement, ::testing::Range(0, 30));

// ---------------------------------------------------------------------
// Chase universality (Prop 2.2) on random weakly-acyclic guarded sets.
// ---------------------------------------------------------------------

class ChaseUniversality : public ::testing::TestWithParam<int> {};

TEST_P(ChaseUniversality, ChaseMapsIntoEveryModel) {
  const int seed = GetParam();
  // Acyclic inclusion dependencies: pr2a -> pr2b -> pr2c (with random
  // argument permutations), so the chase terminates.
  WorkloadRng rng(seed);
  Term x = Term::Variable("X");
  Term y = Term::Variable("Y");
  Term z = Term::Variable("Z");
  TgdSet sigma;
  sigma.push_back(Tgd({Atom::Make("pr2a", {x, y})},
                      {rng.Chance(50) ? Atom::Make("pr2b", {x, y})
                                      : Atom::Make("pr2b", {y, x})}));
  sigma.push_back(Tgd({Atom::Make("pr2b", {x, y})},
                      {rng.Chance(50) ? Atom::Make("pr2c", {x, z})
                                      : Atom::Make("pr2c", {y, z})}));
  ASSERT_TRUE(IsObliviousChaseTerminating(sigma));
  Instance db = RandomBinaryDatabase("pr2a", 5, 6, seed, "p2");
  ChaseResult chased = Chase(db, sigma);
  ASSERT_TRUE(chased.complete);
  // Build another model by over-saturating: add pr2b/pr2c facts over a
  // fixed constant.
  Instance model;
  model.InsertAll(db);
  Term w = Term::Constant("p2w");
  for (Term t : db.ActiveDomain()) {
    model.Insert(Atom::Make("pr2b", {t, w}));
    model.Insert(Atom::Make("pr2b", {w, t}));
    model.Insert(Atom::Make("pr2c", {t, w}));
    model.Insert(Atom::Make("pr2c", {w, t}));
  }
  model.Insert(Atom::Make("pr2b", {w, w}));
  model.Insert(Atom::Make("pr2c", {w, w}));
  if (!Satisfies(model, sigma)) return;  // rare orientation mismatch: skip
  std::vector<Term> fixed = db.ActiveDomain();
  EXPECT_TRUE(
      InstanceHomomorphism(chased.instance, model, fixed).has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaseUniversality, ::testing::Range(0, 15));

// ---------------------------------------------------------------------
// Witness-certificate determinism (PR 5 regression lock): the chase's
// derivation log must replay through the independent verifier, its
// serialized wire bytes must be identical across repeated runs, and the
// instance digest recorded in the witness must match the instance. Any
// data-layout change that perturbs insertion order or null assignment
// trips these before it can reach the serve pipeline.
// ---------------------------------------------------------------------

class WitnessDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(WitnessDeterminism, DerivationWitnessReplaysAndEncodesStably) {
  const int seed = GetParam();
  WorkloadRng rng(seed * 23 + 11);
  TgdSet sigma = RandomInclusionDependencies(
      "pwd" + std::to_string(seed % 5) + "p", 4, 4, /*existential=*/40,
      static_cast<uint64_t>(seed) * 101 + 7);
  Instance db = RandomBinaryDatabase("pwd" + std::to_string(seed % 5) + "p0",
                                     5, 6 + rng.Below(5), seed, "pw");

  auto run = [&](uint32_t null_base) {
    Term::SetNextNullId(null_base);
    ChaseOptions options;
    options.collect_witness = true;
    options.budget.max_facts = 800;
    return Chase(db, sigma, options);
  };

  const uint32_t null_base = Term::NextNullId();
  ChaseResult first = run(null_base);
  ASSERT_TRUE(first.derivation.collected);

  if (first.derivation.replay_exact) {
    // Only an exact log commits to the digest fields.
    EXPECT_EQ(first.derivation.final_facts, first.instance.size());
    EXPECT_EQ(first.derivation.instance_crc, InstanceTextCrc(first.instance));
    Instance replayed;
    VerifyResult check =
        VerifyDerivation(db, sigma, first.derivation, &replayed);
    ASSERT_TRUE(check.ok())
        << "seed " << seed << ": " << VerifyCodeName(check.code) << " — "
        << check.reason;
    EXPECT_EQ(replayed.atoms(), first.instance.atoms());
  }

  // Re-running from the same null base reproduces the identical witness,
  // and the wire encoding is byte-stable.
  ChaseResult second = run(null_base);
  EXPECT_EQ(second.derivation, first.derivation);
  EvalWitness wire_first;
  wire_first.kind = EvalWitness::Kind::kDerivation;
  wire_first.method = "chase";
  wire_first.certified = first.derivation.replay_exact;
  wire_first.derivation = first.derivation;
  EvalWitness wire_second = wire_first;
  wire_second.derivation = second.derivation;
  EXPECT_EQ(EncodeEvalWitnessToString(wire_first),
            EncodeEvalWitnessToString(wire_second));

  // The codec round-trips to an equal witness.
  EvalWitness decoded;
  SnapshotStatus status = DecodeEvalWitnessFromString(
      EncodeEvalWitnessToString(wire_first), &decoded);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_EQ(decoded.derivation, first.derivation);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WitnessDeterminism, ::testing::Range(0, 12));

// ---------------------------------------------------------------------
// Core invariants on random queries.
// ---------------------------------------------------------------------

class CoreProperties : public ::testing::TestWithParam<int> {};

TEST_P(CoreProperties, CoreIsEquivalentMinimalAndIdempotent) {
  const int seed = GetParam();
  WorkloadRng rng(seed);
  const int num_vars = 3 + rng.Below(3);
  std::vector<Atom> atoms;
  for (int i = 0; i < 4; ++i) {
    atoms.push_back(Atom::Make(
        "pr3e",
        {Term::Variable("cv" + std::to_string(rng.Below(num_vars))),
         Term::Variable("cv" + std::to_string(rng.Below(num_vars)))}));
  }
  CQ cq({}, atoms);
  CQ core = CqCore(cq);
  EXPECT_TRUE(CqEquivalent(cq, core));
  EXPECT_TRUE(IsCore(core));
  EXPECT_LE(core.atoms().size(), cq.atoms().size());
  CQ core2 = CqCore(core);
  EXPECT_EQ(core2.atoms().size(), core.atoms().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreProperties, ::testing::Range(0, 20));

// ---------------------------------------------------------------------
// Contraction counts equal admissible-partition counts (Bell numbers).
// ---------------------------------------------------------------------

TEST(ContractionCounts, BellNumbersForBooleanQueries) {
  // Boolean CQs with v variables: count = Bell(v).
  const size_t bell[] = {1, 1, 2, 5, 15, 52};
  for (int v = 2; v <= 5; ++v) {
    std::vector<Atom> atoms;
    for (int i = 0; i + 1 < v; ++i) {
      atoms.push_back(
          Atom::Make("pr4e", {Term::Variable("bv" + std::to_string(i)),
                              Term::Variable("bv" + std::to_string(i + 1))}));
    }
    CQ cq({}, atoms);
    size_t count = ForEachContraction(
        cq, [](const CQ&, const Substitution&) { return true; });
    EXPECT_EQ(count, bell[v]) << "v=" << v;
  }
}

TEST(ContractionCounts, AnswerVariableRestrictions) {
  // 1 answer var + 2 existential vars: partitions of 3 elements where the
  // answer var's block constraint is vacuous (only one answer var) = 5.
  CQ cq({Term::Variable("AV")},
        {Atom::Make("pr4e", {Term::Variable("AV"), Term::Variable("E1")}),
         Atom::Make("pr4e", {Term::Variable("E1"), Term::Variable("E2")})});
  size_t count = ForEachContraction(
      cq, [](const CQ&, const Substitution&) { return true; });
  EXPECT_EQ(count, 5u);
}

// ---------------------------------------------------------------------
// Containment sanity: contraction => containment; core equivalence.
// ---------------------------------------------------------------------

class ContractionContainment : public ::testing::TestWithParam<int> {};

TEST_P(ContractionContainment, EveryContractionIsContained) {
  const int seed = GetParam();
  WorkloadRng rng(seed);
  std::vector<Atom> atoms;
  for (int i = 0; i < 3; ++i) {
    atoms.push_back(Atom::Make(
        "pr5e", {Term::Variable("kv" + std::to_string(rng.Below(4))),
                 Term::Variable("kv" + std::to_string(rng.Below(4)))}));
  }
  CQ cq({}, atoms);
  for (const CQ& contraction : AllContractions(cq)) {
    EXPECT_TRUE(CqContained(contraction, cq))
        << contraction.ToString() << " vs " << cq.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContractionContainment,
                         ::testing::Range(0, 10));

// ---------------------------------------------------------------------
// Linear engines agree on random inclusion-dependency workloads.
// ---------------------------------------------------------------------

class LinearEnginesAgree : public ::testing::TestWithParam<int> {};

TEST_P(LinearEnginesAgree, RewritingVsChaseVsGuarded) {
  const int seed = GetParam();
  TgdSet sigma =
      RandomInclusionDependencies("pr6r", 3, 4, /*existential=*/25, seed);
  Instance db = RandomBinaryDatabase("pr6r0", 8, 10, seed * 7 + 1, "p6");
  db.InsertAll(RandomBinaryDatabase("pr6r1", 8, 10, seed * 7 + 2, "p6"));
  CQ q({Term::Variable("QX")},
       {Atom::Make("pr6r" + std::to_string(seed % 3),
                   {Term::Variable("QX"), Term::Variable("QY")})});
  UCQ ucq({q});
  std::vector<RewriteWitness> provenance;
  auto via_rewriting =
      LinearCertainAnswersViaRewriting(db, sigma, ucq, &provenance);
  auto via_chase = LinearCertainAnswersViaChase(db, sigma, ucq, 14).answers;
  auto via_guarded = GuardedCertainAnswers(db, sigma, ucq);
  EXPECT_EQ(via_rewriting, via_chase) << "seed " << seed;
  EXPECT_EQ(via_rewriting, via_guarded) << "seed " << seed;
  // Certificate level: every rewriting answer ships a provenance record
  // the independent checker accepts — the fired disjunct holds in D and
  // its chased image satisfies the original query.
  ASSERT_EQ(provenance.size(), via_rewriting.size()) << "seed " << seed;
  for (size_t i = 0; i < provenance.size(); ++i) {
    VerifyResult check =
        VerifyRewriteProvenance(db, sigma, ucq, provenance[i]);
    EXPECT_TRUE(check.ok())
        << "seed " << seed << " answer " << i << " ["
        << VerifyCodeName(check.code) << "] " << check.reason;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearEnginesAgree, ::testing::Range(0, 15));

// ---------------------------------------------------------------------
// Engine pairs on random guarded sets: the guarded portion against the
// terminating chase, and the portion's tree-DP verdict against its
// backtracking verdict. Predicates eg0..eg5 have a level (their index)
// and arities 1,2,2,3,2,1. Head atoms derive upward (an existential
// head strictly above every body atom), except that one head atom in
// eight may derive downward. So most sets have a terminating oblivious
// chase, and the rest (infinite chases among them) exercise the filter
// of the first pair and the blocking of the second.
// ---------------------------------------------------------------------

constexpr int kGuardedPredicates = 6;
constexpr int kGuardedArity[kGuardedPredicates] = {1, 2, 2, 3, 2, 1};

std::string GuardedPredicate(int i) { return "eg" + std::to_string(i); }

/// An atom over predicate `pred` with arguments drawn from `vars`.
Atom RandomAtomOver(int pred, const std::vector<Term>& vars,
                    WorkloadRng* rng) {
  std::vector<Term> args;
  for (int i = 0; i < kGuardedArity[pred]; ++i) {
    args.push_back(vars[rng->Below(vars.size())]);
  }
  return Atom::Make(GuardedPredicate(pred), args);
}

/// A random guarded set: each TGD's first body atom (over distinct
/// variables) guards its side atoms and its head.
TgdSet RandomGuardedSet(uint64_t seed) {
  WorkloadRng rng(seed);
  const std::vector<Term> pool = {Term::Variable("X"), Term::Variable("Y"),
                                  Term::Variable("Z")};
  const Term existential = Term::Variable("E");
  TgdSet sigma;
  const int num_tgds = 3 + static_cast<int>(rng.Below(3));
  for (int t = 0; t < num_tgds; ++t) {
    const int guard = 1 + static_cast<int>(rng.Below(kGuardedPredicates - 2));
    std::vector<Term> vars(pool.begin(), pool.begin() + kGuardedArity[guard]);
    std::vector<Atom> body = {Atom::Make(GuardedPredicate(guard), vars)};
    int top = guard;
    for (int side = static_cast<int>(rng.Below(3)); side > 0; --side) {
      int pred = static_cast<int>(rng.Below(kGuardedPredicates));
      if (kGuardedArity[pred] > kGuardedArity[guard]) pred = 0;
      body.push_back(RandomAtomOver(pred, vars, &rng));
      top = std::max(top, pred);
    }
    std::vector<Atom> head;
    for (int h = 1 + static_cast<int>(rng.Below(2)); h > 0; --h) {
      int pred = static_cast<int>(rng.Below(kGuardedPredicates));
      const bool downward = rng.Chance(12);
      if (pred < top && !downward) {
        pred = top + static_cast<int>(rng.Below(kGuardedPredicates - top));
      }
      std::vector<Term> head_vars = vars;
      if (rng.Chance(35) && pred > top) head_vars.push_back(existential);
      head.push_back(RandomAtomOver(pred, head_vars, &rng));
    }
    sigma.push_back(Tgd(std::move(body), std::move(head)));
  }
  return sigma;
}

/// A random database over eg0..eg5 and three constants.
Instance RandomGuardedDatabase(uint64_t seed) {
  WorkloadRng rng(seed * 31 + 7);
  std::vector<Term> constants;
  for (int i = 0; i < 3; ++i) {
    constants.push_back(Term::Constant("egc" + std::to_string(i)));
  }
  Instance db;
  for (int f = 0; f < 12; ++f) {
    db.Insert(RandomAtomOver(static_cast<int>(rng.Below(kGuardedPredicates)),
                             constants, &rng));
  }
  return db;
}

/// A random CQ with answer variable QX and, on every fourth seed, QY.
/// Its first atom is the last existential head of Σ that holds X, renamed
/// (X, Y, Z, E to QX, QY, QX, QZ) so that its answers need nulls; without
/// one, a binary atom over (QX, QY). One or two random atoms follow.
UCQ RandomGuardedQuery(const TgdSet& sigma, uint64_t seed) {
  WorkloadRng rng(seed * 17 + 3);
  const std::vector<Term> vars = {Term::Variable("QX"), Term::Variable("QY"),
                                  Term::Variable("QZ")};
  Substitution rename;
  rename.Set(Term::Variable("X"), vars[0]);
  rename.Set(Term::Variable("Y"), vars[1]);
  rename.Set(Term::Variable("Z"), vars[0]);
  rename.Set(Term::Variable("E"), vars[2]);
  const int anchor = 1 + static_cast<int>(rng.Below(2));
  std::vector<Atom> atoms = {
      Atom::Make(GuardedPredicate(anchor), {vars[0], vars[1]})};
  for (const Tgd& tgd : sigma) {
    for (const Atom& head : tgd.head()) {
      if (head.Contains(Term::Variable("E")) &&
          head.Contains(Term::Variable("X"))) {
        atoms[0] = rename.Apply(head);
      }
    }
  }
  for (int a = 1 + static_cast<int>(rng.Below(2)); a > 0; --a) {
    atoms.push_back(RandomAtomOver(
        1 + static_cast<int>(rng.Below(kGuardedPredicates - 1)), vars, &rng));
  }
  std::vector<Term> answer = {vars[0]};
  const bool has_qy = std::any_of(
      atoms.begin(), atoms.end(),
      [&vars](const Atom& atom) { return atom.Contains(vars[1]); });
  if (seed % 4 == 1 && has_qy) answer.push_back(vars[1]);
  return UCQ({CQ(answer, std::move(atoms))});
}

std::string GuardedCase(const TgdSet& sigma, const Instance& db,
                        const UCQ& query) {
  std::string out = TgdSetToString(sigma);
  for (const Atom& fact : db.atoms()) out += fact.ToString() + ".\n";
  return out + query.ToString();
}

using AnswerSet = std::set<std::vector<Term>>;

constexpr int kGuardedSeeds = 30;

TEST(GuardedEnginePairs, PortionMatchesTerminatingChase) {
  int checked = 0;
  int nonempty = 0;
  for (int seed = 0; seed < kGuardedSeeds; ++seed) {
    TgdSet sigma = RandomGuardedSet(seed);
    ASSERT_TRUE(IsGuardedSet(sigma));
    if (!IsObliviousChaseTerminating(sigma)) continue;
    ++checked;
    Instance db = RandomGuardedDatabase(seed);
    UCQ query = RandomGuardedQuery(sigma, seed);
    auto guarded = GuardedCertainAnswers(db, sigma, query);
    ChaseResult chased = Chase(db, sigma);
    ASSERT_TRUE(chased.complete) << GuardedCase(sigma, db, query);
    AnswerSet via_chase;
    for (auto& tuple : EvaluateUCQ(query, chased.instance)) {
      if (std::all_of(tuple.begin(), tuple.end(),
                      [&db](Term t) { return db.InDomain(t); })) {
        via_chase.insert(std::move(tuple));
      }
    }
    nonempty += !via_chase.empty();
    EXPECT_EQ(AnswerSet(guarded.begin(), guarded.end()), via_chase)
        << "seed " << seed << "\n" << GuardedCase(sigma, db, query);
  }
  // The filter must not hollow the oracle out: at least 20 seeds check,
  // and a fair share of them compare non-empty answer sets.
  EXPECT_GE(checked, 20);
  EXPECT_GE(nonempty, 5);
}

TEST(GuardedEnginePairs, TreeDpAndBacktrackingAgreeOnPortion) {
  GuardedEvalOptions join;
  GuardedEvalOptions tree_dp;
  tree_dp.use_tree_dp = true;
  int positives = 0;
  int candidates = 0;
  for (int seed = 0; seed < kGuardedSeeds; ++seed) {
    TgdSet sigma = RandomGuardedSet(seed);
    ASSERT_TRUE(IsGuardedSet(sigma));
    Instance db = RandomGuardedDatabase(seed);
    UCQ query = RandomGuardedQuery(sigma, seed);
    TypeClosureEngine engine(sigma);
    auto answers = GuardedCertainAnswers(db, sigma, query, {}, &engine);
    const AnswerSet certain(answers.begin(), answers.end());
    const std::vector<Term>& domain = db.ActiveDomain();
    const size_t arity = query.disjuncts()[0].answer_vars().size();
    // Every tuple over dom(D), odometer order.
    std::vector<size_t> digits(arity, 0);
    for (bool more = true; more;) {
      std::vector<Term> tuple;
      for (size_t d : digits) tuple.push_back(domain[d]);
      const bool by_join =
          GuardedCertainlyHolds(db, sigma, query, tuple, join, &engine);
      const bool by_tree_dp =
          GuardedCertainlyHolds(db, sigma, query, tuple, tree_dp, &engine);
      EXPECT_EQ(by_join, by_tree_dp) << "seed " << seed << "\n"
                                     << GuardedCase(sigma, db, query);
      EXPECT_EQ(by_join, certain.contains(tuple)) << "seed " << seed;
      positives += by_join;
      ++candidates;
      more = false;
      for (size_t i = 0; i < arity && !more; ++i) {
        more = ++digits[i] < domain.size();
        if (!more) digits[i] = 0;
      }
    }
  }
  // Both verdicts occur, so neither engine passes by answering constantly.
  EXPECT_GT(positives, 0);
  EXPECT_LT(positives, candidates);
}

// Engine pair 3: the finite witness M(D, Σ, n) of Definition 6.5, n the
// query's variable count, must contain D, satisfy Σ (checked here, not
// only by its own is_model flag) and have closed-world answers over
// dom(D) equal to the portion's certain answers. From seed kGuardedSeeds
// on, Σ also gets the recursive rule eg1(X, Y) -> eg1(Y, E). An eg1
// fact whose target has no eg1 successor then starts an infinite
// restricted chase, and the witness folds blocked bags onto their
// ancestors instead; those seeds also probe the witness with Boolean
// eg1 cycles, the queries that see where a fold lands.
TEST(GuardedEnginePairs, FiniteWitnessMatchesCertainAnswers) {
  const Term x = Term::Variable("X");
  const Term y = Term::Variable("Y");
  const Term e = Term::Variable("E");
  const Tgd recursive({Atom::Make(GuardedPredicate(1), {x, y})},
                      {Atom::Make(GuardedPredicate(1), {y, e})});
  int checked = 0;
  int folded = 0;
  for (int seed = 0; seed < 2 * kGuardedSeeds; ++seed) {
    TgdSet sigma = RandomGuardedSet(seed);
    if (seed >= kGuardedSeeds) sigma.push_back(recursive);
    ASSERT_TRUE(IsGuardedSet(sigma));
    Instance db = RandomGuardedDatabase(seed);
    UCQ query = RandomGuardedQuery(sigma, seed);
    const int n =
        static_cast<int>(query.disjuncts()[0].AllVariables().size());
    FiniteWitness witness = BuildFiniteWitness(db, sigma, n);
    EXPECT_TRUE(witness.is_model && db.SubsetOf(witness.model) &&
                Satisfies(witness.model, sigma))
        << "seed " << seed << "\n" << GuardedCase(sigma, db, query);
    EXPECT_TRUE(WitnessAgreesOnQuery(witness, db, sigma, query))
        << "seed " << seed << "\n" << GuardedCase(sigma, db, query);
    if (seed >= kGuardedSeeds) {
      // Boolean eg1 cycles of length k <= n: a fold closes an eg1 path
      // back onto an ancestor n+1 bags down, which the random query,
      // anchored at dom(D), rarely reaches. Each probe has k <= n
      // variables, so Thm 6.7 makes the same witness agree on it too.
      for (int k = 1; k <= n; ++k) {
        std::vector<Atom> cycle;
        for (int i = 0; i < k; ++i) {
          cycle.push_back(Atom::Make(
              GuardedPredicate(1),
              {Term::Variable("QC" + std::to_string(i)),
               Term::Variable("QC" + std::to_string((i + 1) % k))}));
        }
        const UCQ probe({CQ({}, std::move(cycle))});
        EXPECT_TRUE(WitnessAgreesOnQuery(witness, db, sigma, probe))
            << "seed " << seed << " cycle " << k << "\n"
            << GuardedCase(sigma, db, probe);
      }
    }
    ++checked;
    folded += witness.folds > 0;
  }
  // The fold path, not only the terminating-chase shortcut, is checked.
  EXPECT_GE(checked, 20);
  EXPECT_GE(folded, 10);
}

// ---------------------------------------------------------------------
// Treewidth invariants on random graphs.
// ---------------------------------------------------------------------

class TreewidthInvariants : public ::testing::TestWithParam<int> {};

TEST_P(TreewidthInvariants, BoundsAndValidDecompositions) {
  const int seed = GetParam();
  Graph g = RandomGraph(11, 25 + (seed % 4) * 15, seed);
  TreewidthResult result = ComputeTreewidth(g);
  ASSERT_TRUE(result.exact());
  std::string why;
  EXPECT_TRUE(result.decomposition.Validate(g, &why)) << why;
  EXPECT_EQ(result.decomposition.Width(), result.upper_bound);
  EXPECT_GE(result.upper_bound, Degeneracy(g));
  // Heuristics are upper bounds.
  int min_fill =
      DecompositionFromEliminationOrder(g, MinFillOrder(g)).Width();
  EXPECT_GE(min_fill, result.upper_bound);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreewidthInvariants, ::testing::Range(0, 12));

// ---------------------------------------------------------------------
// Homomorphism composition: hom(A->B) and hom(B->C) compose.
// ---------------------------------------------------------------------

class HomComposition : public ::testing::TestWithParam<int> {};

TEST_P(HomComposition, ComposesThroughChase) {
  const int seed = GetParam();
  Instance a = RandomBinaryDatabase("pr7e", 4, 5, seed, "p7a");
  Instance b = RandomBinaryDatabase("pr7e", 6, 14, seed + 100, "p7b");
  Instance c = RandomBinaryDatabase("pr7e", 8, 30, seed + 200, "p7c");
  auto ab = InstanceHomomorphism(a, b);
  auto bc = InstanceHomomorphism(b, c);
  if (ab.has_value() && bc.has_value()) {
    // The composition witnesses a -> c.
    EXPECT_TRUE(InstanceHomomorphism(a, c).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HomComposition, ::testing::Range(0, 15));

}  // namespace
}  // namespace gqe
