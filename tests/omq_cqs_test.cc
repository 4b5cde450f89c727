#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <string_view>

#include "cqs/containment.h"
#include "cqs/cqs.h"
#include "chase/chase.h"
#include "cqs/evaluation.h"
#include "omq/containment.h"
#include "omq/evaluation.h"
#include "omq/omq.h"
#include "parser/parser.h"

namespace gqe {
namespace {

Term C(const char* name) { return Term::Constant(name); }

/// A fresh, empty scratch directory for one test.
std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "gqe_omq_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Number of files in `dir` whose name starts with `prefix`.
int CountFiles(const std::string& dir, std::string_view prefix) {
  int count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().starts_with(prefix)) ++count;
  }
  return count;
}

TEST(OmqTest, FullDataSchemaDetection) {
  TgdSet sigma = ParseTgds("oa(X) -> ob(X).");
  UCQ q = ParseUcq("oq(X) :- ob(X).");
  Omq full = Omq::WithFullDataSchema(sigma, q);
  EXPECT_TRUE(full.HasFullDataSchema());
  Omq partial = full;
  partial.data_schema = Schema();
  partial.data_schema.Add("oa", 1);
  EXPECT_FALSE(partial.HasFullDataSchema());
}

TEST(OmqTest, ValidateOntologyClass) {
  TgdSet guarded = ParseTgds("oa(X) -> ob(X).");
  Omq omq = Omq::WithFullDataSchema(guarded, ParseUcq("oq2(X) :- ob(X)."));
  std::string why;
  EXPECT_TRUE(omq.Validate("G", &why)) << why;
  EXPECT_TRUE(omq.Validate("L", &why)) << why;
  TgdSet not_guarded =
      ParseTgds("oe(X, Y), oe(Y, Z) -> of2(X, Z).");
  Omq bad = Omq::WithFullDataSchema(not_guarded, ParseUcq("oq3(X) :- oe(X, Y)."));
  EXPECT_FALSE(bad.Validate("G"));
  EXPECT_FALSE(bad.Validate("FG"));
}

TEST(OmqEvaluationTest, EmptyOntologyIsPlainEvaluation) {
  Omq omq = Omq::WithFullDataSchema({}, ParseUcq("pq(X) :- pedge2(X, Y)."));
  Instance db = ParseDatabase("pedge2(a, b).");
  OmqEvalResult result = EvaluateOmq(omq, db);
  EXPECT_EQ(result.method, "empty-ontology");
  EXPECT_TRUE(result.exact);
  EXPECT_EQ(result.answers.size(), 1u);
}

TEST(OmqEvaluationTest, GuardedOntologyUsesPortion) {
  TgdSet sigma = ParseTgds("gstud(X) -> genr(X, Y).");
  Omq omq = Omq::WithFullDataSchema(sigma, ParseUcq("gq(X) :- genr(X, Y)."));
  Instance db = ParseDatabase("gstud(sam). genr(tess, uni1).");
  OmqEvalResult result = EvaluateOmq(omq, db);
  EXPECT_EQ(result.method, "guarded-portion");
  EXPECT_TRUE(result.exact);
  EXPECT_EQ(result.answers.size(), 2u);
}

TEST(OmqEvaluationTest, TerminatingNonGuardedChase) {
  TgdSet sigma = ParseTgds("te2(X, Y), te2(Y, Z) -> tf2(X, Z).");
  ASSERT_FALSE(IsGuardedSet(sigma));
  Omq omq = Omq::WithFullDataSchema(sigma, ParseUcq("tq2(X, Z) :- tf2(X, Z)."));
  Instance db = ParseDatabase("te2(a, b). te2(b, c).");
  OmqEvalResult result = EvaluateOmq(omq, db);
  EXPECT_EQ(result.method, "terminating-chase");
  EXPECT_TRUE(result.exact);
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0], (std::vector<Term>{C("a"), C("c")}));
}

TEST(OmqEvaluationTest, NonTerminatingFallbackFlagsApproximation) {
  // Frontier-guarded, not guarded, oblivious chase non-terminating.
  TgdSet sigma = ParseTgds(R"(
    fgr(X, Y), fgr(Y, Z) -> fgs2(X).
    fgr(X, W) -> fgr(W, V).
  )");
  ASSERT_FALSE(IsGuardedSet(sigma));
  ASSERT_TRUE(IsFrontierGuardedSet(sigma));
  ASSERT_FALSE(IsObliviousChaseTerminating(sigma));
  Omq omq = Omq::WithFullDataSchema(sigma, ParseUcq("fq(X) :- fgs2(X)."));
  Instance db = ParseDatabase("fgr(n1, n2).");
  OmqEvalResult result = EvaluateOmq(omq, db);
  EXPECT_EQ(result.method, "bounded-chase");
  EXPECT_FALSE(result.exact);
  // fgs2(n1) via the data edge + a chased edge; fgs2(n2) one level deeper.
  ASSERT_EQ(result.answers.size(), 2u);
}

TEST(OmqEvaluationTest, OmqHoldsAgreesWithEvaluate) {
  TgdSet sigma = ParseTgds("hstud(X) -> henr(X, Y).");
  Omq omq = Omq::WithFullDataSchema(sigma, ParseUcq("hq(X) :- henr(X, Y)."));
  Instance db = ParseDatabase("hstud(kim).");
  EXPECT_TRUE(OmqHolds(omq, db, {C("kim")}));
  EXPECT_FALSE(OmqHolds(omq, db, {C("unknown_person")}));
  OmqEvalOptions with_dp;
  with_dp.use_tree_dp = true;
  EXPECT_TRUE(OmqHolds(omq, db, {C("kim")}, with_dp));
}

/// A guarded run whose portion the fact budget cuts short reports the
/// answers it found over that portion, as partial, instead of nothing:
/// the portion is a sub-instance of chase(D,Σ). eg2(egc3,egc3) fires the
/// first rule, giving eg1(egc3,egc3) and eg5(egc3), so q(egc3) is certain.
TEST(OmqEvaluationTest, TruncatedGuardedPortionReportsWhatItFound) {
  TgdSet sigma = ParseTgds(R"(
    eg2(X, Y), eg2(Y, X) -> eg1(X, Y), eg5(Y).
    eg2(X, Y), eg0(Y), eg5(Y) -> eg1(Y, X), eg5(Y).
    eg3(X, Y, Z) -> eg3(E, X, E), eg1(Y, Z).
    eg2(X, Y), eg5(X) -> eg3(X, Y, X), eg0(X).
    eg1(X, Y) -> eg1(E, Y), eg3(X, Y, X).
  )");
  ASSERT_TRUE(IsGuardedSet(sigma));
  Instance db = ParseDatabase(
      "eg1(egc1, egc0). eg4(egc3, egc0). eg0(egc2). eg5(egc3). eg5(egc2). "
      "eg2(egc3, egc3). eg2(egc3, egc1).");
  Omq omq = Omq::WithFullDataSchema(
      sigma,
      ParseUcq("q(QX) :- eg1(QX, QX), eg1(QX, QY), eg5(QZ), eg1(QX, QY)."));
  OmqEvalOptions options;
  options.budget.max_facts = 100;
  OmqEvalResult result = EvaluateOmq(omq, db, options);
  EXPECT_EQ(result.method, "guarded-portion");
  EXPECT_EQ(result.status, Status::kBudgetExceeded);
  EXPECT_TRUE(result.partial);
  EXPECT_FALSE(result.exact);
  const std::vector<Term> egc3 = {C("egc3")};
  EXPECT_NE(std::find(result.answers.begin(), result.answers.end(), egc3),
            result.answers.end());
  EXPECT_TRUE(OmqHolds(omq, db, egc3, options));
}

TEST(OmqCheckpointTest, GuardedPathIgnoresCheckpointDir) {
  // The guarded path always builds its portion afresh: a checkpoint
  // directory changes neither its answers nor the directory.
  TgdSet sigma = ParseTgds(R"(
    cgstud(X) -> cgenr(X, Y).
    cgenr(X, Y) -> cgstud(Y).
  )");
  ASSERT_TRUE(IsGuardedSet(sigma));
  Omq omq = Omq::WithFullDataSchema(
      sigma, ParseUcq("cgq(X) :- cgenr(X, Y), cgstud(Y)."));
  Instance db = ParseDatabase("cgstud(ann). cgenr(bob, uni).");
  OmqEvalResult plain = EvaluateOmq(omq, db);
  OmqEvalOptions options;
  options.checkpoint_dir = FreshDir("guarded");
  OmqEvalResult checkpointed = EvaluateOmq(omq, db, options);
  EXPECT_EQ(checkpointed.method, "guarded-portion");
  EXPECT_EQ(checkpointed.answers, plain.answers);
  EXPECT_EQ(plain.answers.size(), 3u);  // ann, bob and uni
  EXPECT_TRUE(OmqHolds(omq, db, {C("uni")}, options));
  EXPECT_FALSE(OmqHolds(omq, db, {C("cgnobody")}, options));
  EXPECT_EQ(CountFiles(options.checkpoint_dir, "portion-"), 0);
  std::filesystem::remove_all(options.checkpoint_dir);
}

TEST(OmqCheckpointTest, TerminatingChaseResumesFromCheckpointDir) {
  // The terminating-chase path writes chase generations, and a second
  // evaluation over the same directory resumes to the same answers.
  TgdSet sigma = ParseTgds("ce2(X, Y), ce2(Y, Z) -> cf2(X, Z).");
  ASSERT_FALSE(IsGuardedSet(sigma));
  ASSERT_TRUE(IsObliviousChaseTerminating(sigma));
  Omq omq =
      Omq::WithFullDataSchema(sigma, ParseUcq("cq4(X, Z) :- cf2(X, Z)."));
  Instance db = ParseDatabase("ce2(a, b). ce2(b, c). ce2(c, d).");
  OmqEvalOptions options;
  options.checkpoint_dir = FreshDir("terminating");
  OmqEvalResult first = EvaluateOmq(omq, db, options);
  EXPECT_EQ(first.method, "terminating-chase");
  EXPECT_GT(CountFiles(options.checkpoint_dir, "chase-"), 0);
  OmqEvalResult second = EvaluateOmq(omq, db, options);
  EXPECT_EQ(second.answers, first.answers);
  EXPECT_EQ(first.answers.size(), 2u);
  EXPECT_EQ(EvaluateOmq(omq, db).answers, first.answers);
  std::filesystem::remove_all(options.checkpoint_dir);
}

TEST(CqsEvaluationTest, ClosedWorldIgnoresChase) {
  // The same Σ, used as integrity constraints: evaluation does NOT chase;
  // the promise means the data already satisfies the constraints.
  TgdSet sigma = ParseTgds("cstud2(X) -> cenr2(X, Y).");
  Cqs cqs{sigma, ParseUcq("cq2(X) :- cenr2(X, Y).")};
  Instance db = ParseDatabase("cstud2(lea). cenr2(lea, uni2).");
  ASSERT_TRUE(Satisfies(db, sigma));
  CqsEvalResult result = EvaluateCqs(cqs, db, /*check_promise=*/true);
  EXPECT_TRUE(result.promise_ok);
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0][0], C("lea"));
}

TEST(CqsEvaluationTest, PromiseViolationDetected) {
  TgdSet sigma = ParseTgds("cstud3(X) -> cenr3(X, Y).");
  Cqs cqs{sigma, ParseUcq("cq3(X) :- cenr3(X, Y).")};
  Instance db = ParseDatabase("cstud3(max).");  // no enrollment: violates
  CqsEvalResult result = EvaluateCqs(cqs, db, /*check_promise=*/true);
  EXPECT_FALSE(result.promise_ok);
}

TEST(CqsContainmentTest, ConstraintsEnableContainment) {
  // Under stud(X) -> enr(X,Y), the query enr-projection contains the
  // stud query *on satisfying databases*, though not unconditionally.
  TgdSet sigma = ParseTgds("kstud(X) -> kenr(X, Y).");
  Cqs s_stud{sigma, ParseUcq("kq1(X) :- kstud(X).")};
  Cqs s_enr{sigma, ParseUcq("kq2(X) :- kenr(X, Y).")};
  EXPECT_TRUE(CqsContained(s_stud, s_enr));
  EXPECT_FALSE(CqsContained(s_enr, s_stud));
  // Without constraints the containment fails.
  Cqs p_stud{{}, s_stud.query};
  Cqs p_enr{{}, s_enr.query};
  EXPECT_FALSE(CqsContained(p_stud, p_enr));
}

TEST(CqsContainmentTest, EquivalenceUnderConstraints) {
  // stud(X) -> person(X) and person(X) -> reg(X,Y): on satisfying
  // databases q(X):-stud(X) and q(X):-stud(X),reg(X,Y) coincide.
  TgdSet sigma = ParseTgds(R"(
    qstud(X) -> qperson(X).
    qperson(X) -> qreg(X, Y).
  )");
  Cqs plain{sigma, ParseUcq("qc1(X) :- qstud(X).")};
  Cqs longer{sigma, ParseUcq("qc2(X) :- qstud(X), qreg(X, Y).")};
  EXPECT_TRUE(CqsEquivalent(plain, longer));
}

TEST(OmqContainmentTest, SameOntologyContainment) {
  TgdSet sigma = ParseTgds("ostud(X) -> operson(X).");
  Omq q_stud = Omq::WithFullDataSchema(sigma, ParseUcq("oc1(X) :- ostud(X)."));
  Omq q_person =
      Omq::WithFullDataSchema(sigma, ParseUcq("oc2(X) :- operson(X)."));
  EXPECT_TRUE(OmqContainedSameOntology(q_stud, q_person));
  EXPECT_FALSE(OmqContainedSameOntology(q_person, q_stud));
  EXPECT_FALSE(OmqEquivalentSameOntology(q_stud, q_person));
}

TEST(OmqVsCqsTest, OpenVsClosedWorldDiffer) {
  // The crux of the paper's two facets: same Σ and q, different
  // semantics. OMQ derives enrollment; CQS does not.
  TgdSet sigma = ParseTgds("vstud(X) -> venr(X, Y).");
  UCQ q = ParseUcq("vq(X) :- venr(X, Y).");
  Instance db_violating = ParseDatabase("vstud(zoe).");
  Omq omq = Omq::WithFullDataSchema(sigma, q);
  EXPECT_EQ(EvaluateOmq(omq, db_violating).answers.size(), 1u);
  Cqs cqs{sigma, q};
  EXPECT_EQ(EvaluateCqs(cqs, db_violating).answers.size(), 0u);
  // On a database satisfying the promise, the two coincide.
  Instance db_ok = ParseDatabase("vstud(zoe). venr(zoe, uni3).");
  EXPECT_EQ(EvaluateOmq(omq, db_ok).answers,
            EvaluateCqs(cqs, db_ok).answers);
}

}  // namespace
}  // namespace gqe
